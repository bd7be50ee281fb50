// Text format for scheduled DFGs + module bindings, so designs can be fed
// to the synthesizer without writing C++. Grammar (one directive per line,
// '#' comments):
//
//   dfg <name>
//   input <var> [<var> ...]          # primary inputs
//   const <name> <value>             # hard-wired constant
//   op <add|sub|mul|cmp> <out> = <a> <b> @<cycle> [on <unit>]
//   unit <name> <type> [<type> ...]  # declare a functional unit
//
// Operands reference variables by name or constants as $name. Outputs are
// declared implicitly by their defining op. Units referenced in `on` are
// created on first use (supporting exactly that op type) unless declared;
// ops without `on` are bound greedily after parsing.
//
// Example:
//   dfg diffeq
//   input x u dx
//   const three 3.0
//   unit mul1 mul
//   op mul t1 = x $three @0 on mul1
//   op add t2 = u dx @0
#pragma once

#include <string>

#include "hls/allocation.hpp"
#include "hls/dfg.hpp"

namespace advbist::hls {

struct ParsedDesign {
  Dfg dfg;
  ModuleAllocation modules;
};

/// Parses the text format above; throws std::invalid_argument with a
/// line-numbered message on malformed input. The returned design is
/// validated (Dfg::validate + ModuleAllocation::validate).
ParsedDesign parse_dfg_text(const std::string& text);

/// Serializes a design back to the text format (round-trips through
/// parse_dfg_text).
std::string to_dfg_text(const Dfg& dfg, const ModuleAllocation& modules);

/// A design named on a command line or in a serve job: a spec without a
/// '.' is a built-in benchmark name (benchmark_by_name), anything else a
/// path to a .dfg file parsed with parse_dfg_text. Throws
/// std::invalid_argument for an unknown name, an unreadable file or
/// malformed text.
ParsedDesign load_design(const std::string& spec);

}  // namespace advbist::hls
