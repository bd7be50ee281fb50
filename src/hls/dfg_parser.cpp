#include "hls/dfg_parser.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "hls/benchmarks.hpp"
#include "util/check.hpp"

namespace advbist::hls {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::invalid_argument("dfg parse error at line " +
                              std::to_string(line) + ": " + message);
}

OpType parse_op_type(int line, const std::string& token) {
  if (token == "add") return OpType::kAdd;
  if (token == "sub") return OpType::kSub;
  if (token == "mul") return OpType::kMul;
  if (token == "cmp") return OpType::kCompare;
  fail(line, "unknown operation type '" + token + "'");
}

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> tokens;
  std::string t;
  while (is >> t) {
    if (t[0] == '#') break;
    tokens.push_back(t);
  }
  return tokens;
}

}  // namespace

ParsedDesign parse_dfg_text(const std::string& text) {
  std::istringstream input(text);
  std::string line;
  int lineno = 0;

  std::string name = "dfg";
  std::map<std::string, int> vars;
  std::map<std::string, int> consts;
  std::map<std::string, int> units;

  struct PendingOp {
    int line;
    OpType type;
    std::string out;
    std::string a, b;
    int step;
    std::string unit;  // empty = greedy
  };
  std::vector<PendingOp> ops;
  std::vector<std::pair<std::string, std::set<OpType>>> unit_decls;
  std::vector<std::pair<std::string, double>> const_decls;
  std::vector<std::string> input_decls;

  while (std::getline(input, line)) {
    ++lineno;
    const auto tok = tokenize(line);
    if (tok.empty()) continue;
    if (tok[0] == "dfg") {
      if (tok.size() != 2) fail(lineno, "dfg expects a name");
      name = tok[1];
    } else if (tok[0] == "input") {
      if (tok.size() < 2) fail(lineno, "input expects variable names");
      for (std::size_t i = 1; i < tok.size(); ++i)
        input_decls.push_back(tok[i]);
    } else if (tok[0] == "const") {
      if (tok.size() != 3) fail(lineno, "const expects <name> <value>");
      try {
        const_decls.emplace_back(tok[1], std::stod(tok[2]));
      } catch (const std::exception&) {
        fail(lineno, "bad constant value '" + tok[2] + "'");
      }
    } else if (tok[0] == "unit") {
      if (tok.size() < 3) fail(lineno, "unit expects <name> <type>...");
      std::set<OpType> types;
      for (std::size_t i = 2; i < tok.size(); ++i)
        types.insert(parse_op_type(lineno, tok[i]));
      unit_decls.emplace_back(tok[1], std::move(types));
    } else if (tok[0] == "op") {
      // op <type> <out> = <a> <b> @<cycle> [on <unit>]
      if (tok.size() < 7 || tok[3] != "=")
        fail(lineno, "op expects: op <type> <out> = <a> <b> @<cycle>");
      PendingOp op;
      op.line = lineno;
      op.type = parse_op_type(lineno, tok[1]);
      op.out = tok[2];
      op.a = tok[4];
      op.b = tok[5];
      if (tok[6].size() < 2 || tok[6][0] != '@')
        fail(lineno, "missing @<cycle>");
      try {
        op.step = std::stoi(tok[6].substr(1));
      } catch (const std::exception&) {
        fail(lineno, "bad cycle '" + tok[6] + "'");
      }
      if (tok.size() >= 9 && tok[7] == "on") op.unit = tok[8];
      else if (tok.size() > 7) fail(lineno, "trailing tokens after cycle");
      ops.push_back(std::move(op));
    } else {
      fail(lineno, "unknown directive '" + tok[0] + "'");
    }
  }

  ParsedDesign design;
  design.dfg = Dfg(name);
  for (const std::string& v : input_decls) {
    if (vars.count(v)) fail(0, "duplicate input '" + v + "'");
    vars[v] = design.dfg.add_variable(v);
  }
  for (const auto& [cname, value] : const_decls) {
    if (consts.count(cname)) fail(0, "duplicate constant '" + cname + "'");
    consts[cname] = design.dfg.add_constant(value, cname);
  }
  for (const auto& [uname, types] : unit_decls) {
    if (units.count(uname)) fail(0, "duplicate unit '" + uname + "'");
    units[uname] = design.modules.add_module(uname, types);
  }
  // Declare op outputs (in order) so forward references resolve.
  for (const PendingOp& op : ops) {
    if (vars.count(op.out)) fail(op.line, "value '" + op.out + "' redefined");
    vars[op.out] = design.dfg.add_variable(op.out);
  }
  auto resolve = [&](const PendingOp& op,
                     const std::string& token) -> ValueRef {
    if (!token.empty() && token[0] == '$') {
      const auto it = consts.find(token.substr(1));
      if (it == consts.end())
        fail(op.line, "unknown constant '" + token + "'");
      return ValueRef::constant(it->second);
    }
    const auto it = vars.find(token);
    if (it == vars.end()) fail(op.line, "unknown value '" + token + "'");
    return ValueRef::variable(it->second);
  };
  std::vector<int> op_ids;
  for (const PendingOp& op : ops) {
    const int id = design.dfg.add_operation(
        op.type, op.step, {resolve(op, op.a), resolve(op, op.b)},
        vars.at(op.out), op.out);
    op_ids.push_back(id);
  }
  design.dfg.validate();

  // Bindings: explicit `on` first, then greedy for the rest.
  bool any_unbound = false;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].unit.empty()) {
      any_unbound = true;
      continue;
    }
    auto it = units.find(ops[i].unit);
    if (it == units.end())
      units[ops[i].unit] = design.modules.add_module(
          ops[i].unit, {ops[i].type}),
      it = units.find(ops[i].unit);
    design.modules.bind(op_ids[i], it->second);
  }
  if (any_unbound) {
    // First-fit over declared + auto units; create per-type units on demand.
    std::vector<std::set<int>> busy(design.modules.num_modules());
    for (std::size_t i = 0; i < ops.size(); ++i)
      if (!ops[i].unit.empty())
        busy[design.modules.module_of(op_ids[i])].insert(ops[i].step);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!ops[i].unit.empty()) continue;
      int chosen = -1;
      for (int m = 0; m < design.modules.num_modules(); ++m)
        if (design.modules.module(m).supports.count(ops[i].type) &&
            busy[m].count(ops[i].step) == 0) {
          chosen = m;
          break;
        }
      if (chosen < 0) {
        chosen = design.modules.add_module(
            std::string(to_string(ops[i].type)) + "_auto" +
                std::to_string(design.modules.num_modules()),
            {ops[i].type});
        busy.emplace_back();
      }
      design.modules.bind(op_ids[i], chosen);
      busy[chosen].insert(ops[i].step);
    }
  }
  design.modules.validate(design.dfg);
  return design;
}

std::string to_dfg_text(const Dfg& dfg, const ModuleAllocation& modules) {
  std::ostringstream os;
  os << "dfg " << dfg.name() << '\n';
  std::vector<std::string> inputs;
  for (int v = 0; v < dfg.num_variables(); ++v)
    if (dfg.is_primary_input(v)) inputs.push_back(dfg.variable(v).name);
  if (!inputs.empty()) {
    os << "input";
    for (const std::string& v : inputs) os << ' ' << v;
    os << '\n';
  }
  for (int c = 0; c < dfg.num_constants(); ++c)
    os << "const " << dfg.constant(c).name << ' ' << dfg.constant(c).value
       << '\n';
  for (int m = 0; m < modules.num_modules(); ++m) {
    os << "unit " << modules.module(m).name;
    for (OpType t : modules.module(m).supports) os << ' ' << to_string(t);
    os << '\n';
  }
  for (const Operation& op : dfg.operations()) {
    os << "op " << to_string(op.type) << ' ' << dfg.variable(op.output).name
       << " =";
    for (const ValueRef& in : op.inputs) {
      if (in.is_constant)
        os << " $" << dfg.constant(in.id).name;
      else
        os << ' ' << dfg.variable(in.id).name;
    }
    os << " @" << op.step;
    const int m = modules.module_of(op.id);
    if (m >= 0) os << " on " << modules.module(m).name;
    os << '\n';
  }
  return os.str();
}

ParsedDesign load_design(const std::string& spec) {
  if (spec.find('.') == std::string::npos) {
    const Benchmark b = benchmark_by_name(spec);
    return ParsedDesign{b.dfg, b.modules};
  }
  std::ifstream in(spec);
  if (!in) throw std::invalid_argument("cannot open " + spec);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_dfg_text(text.str());
}

}  // namespace advbist::hls
