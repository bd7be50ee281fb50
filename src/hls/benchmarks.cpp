#include "hls/benchmarks.hpp"

#include <stdexcept>

namespace advbist::hls {

namespace {
ValueRef V(int v) { return ValueRef::variable(v); }
ValueRef K(int c) { return ValueRef::constant(c); }
}  // namespace

Benchmark make_fig1() {
  Benchmark b;
  b.dfg = Dfg("fig1");
  Dfg& g = b.dfg;
  // Variables 0..7 exactly as in the paper's Section 2.
  const int v0 = g.add_variable("v0");
  const int v1 = g.add_variable("v1");
  const int v2 = g.add_variable("v2");
  const int v3 = g.add_variable("v3");
  const int v4 = g.add_variable("v4");
  const int v5 = g.add_variable("v5");
  const int v6 = g.add_variable("v6");
  const int v7 = g.add_variable("v7");
  // E_i = {(0,8,0),(1,8,1),(3,9,0),(4,9,1),(4,10,0),(2,10,1),(5,11,0),
  // (6,11,1)}, E_o = {(8,4),(9,5),(10,6),(11,7)}; schedule chosen so the
  // paper's register assignment R0={0,4}, R1={1,3,6}, R2={2,5,7} is valid
  // and the maximal crossing is 3.
  const int o8 = g.add_operation(OpType::kAdd, 0, {V(v0), V(v1)}, v4, "op8");
  const int o9 = g.add_operation(OpType::kAdd, 1, {V(v3), V(v4)}, v5, "op9");
  const int o10 = g.add_operation(OpType::kMul, 1, {V(v4), V(v2)}, v6, "op10");
  const int o11 = g.add_operation(OpType::kMul, 2, {V(v5), V(v6)}, v7, "op11");
  g.validate();
  const int m3 = b.modules.add_module("M3", {OpType::kAdd});
  const int m4 = b.modules.add_module("M4", {OpType::kMul});
  b.modules.bind(o8, m3);
  b.modules.bind(o9, m3);
  b.modules.bind(o10, m4);
  b.modules.bind(o11, m4);
  b.modules.validate(g);
  b.paper_registers = 3;
  b.paper_max_sessions = 2;
  return b;
}

Benchmark make_tseng() {
  Benchmark b;
  b.dfg = Dfg("tseng");
  Dfg& g = b.dfg;
  const int a = g.add_variable("a");
  const int bb = g.add_variable("b");
  const int c = g.add_variable("c");
  const int d = g.add_variable("d");
  const int e = g.add_variable("e");
  const int t1 = g.add_variable("t1");
  const int t2 = g.add_variable("t2");
  const int t3 = g.add_variable("t3");
  const int t4 = g.add_variable("t4");
  const int t5 = g.add_variable("t5");
  const int t6 = g.add_variable("t6");
  const int o1 = g.add_operation(OpType::kAdd, 0, {V(a), V(bb)}, t1, "t1=a+b");
  const int o2 = g.add_operation(OpType::kSub, 0, {V(c), V(d)}, t2, "t2=c-d");
  const int o3 = g.add_operation(OpType::kMul, 1, {V(e), V(t1)}, t3, "t3=e*t1");
  const int o4 = g.add_operation(OpType::kAdd, 1, {V(t1), V(t2)}, t4, "t4=t1+t2");
  const int o5 = g.add_operation(OpType::kSub, 2, {V(t3), V(a)}, t5, "t5=t3-a");
  const int o6 = g.add_operation(OpType::kMul, 3, {V(t4), V(bb)}, t6, "t6=t4*b");
  g.validate();
  const int madd = b.modules.add_module("add0", {OpType::kAdd});
  const int msub = b.modules.add_module("sub0", {OpType::kSub});
  const int mmul = b.modules.add_module("mul0", {OpType::kMul});
  b.modules.bind(o1, madd);
  b.modules.bind(o4, madd);
  b.modules.bind(o2, msub);
  b.modules.bind(o5, msub);
  b.modules.bind(o3, mmul);
  b.modules.bind(o6, mmul);
  b.modules.validate(g);
  b.paper_registers = 5;
  b.paper_max_sessions = 3;
  b.paper_ref_mux_inputs = 14;
  b.paper_ref_area = 1600;
  return b;
}

Benchmark make_paulin() {
  // HAL differential-equation step: u1 = u - (3x·u·dx) - (3y·dx);
  // x1 = x + dx; y1 = y + u·dx. Constant 3 is hard-wired (exercises the
  // Section 3.3.4 constants machinery through the commutative multipliers).
  Benchmark b;
  b.dfg = Dfg("paulin");
  Dfg& g = b.dfg;
  const int x = g.add_variable("x");
  const int u = g.add_variable("u");
  const int dx = g.add_variable("dx");
  const int y = g.add_variable("y");
  const int m1 = g.add_variable("m1");  // 3x
  const int m2 = g.add_variable("m2");  // u*dx
  const int m3 = g.add_variable("m3");  // 3x*u*dx
  const int m4 = g.add_variable("m4");  // 3y
  const int m5 = g.add_variable("m5");  // 3y*dx
  const int a1 = g.add_variable("a1");  // u - m3
  const int x1 = g.add_variable("x1");
  const int y1 = g.add_variable("y1");
  const int u1 = g.add_variable("u1");
  const int c3 = g.add_constant(3.0, "3");
  // Schedule (5 cycles) keeping the maximal crossing at 5 registers.
  const int om1 = g.add_operation(OpType::kMul, 0, {V(x), K(c3)}, m1, "m1=3*x");
  const int om2 = g.add_operation(OpType::kMul, 0, {V(u), V(dx)}, m2, "m2=u*dx");
  const int ox1 = g.add_operation(OpType::kAdd, 0, {V(x), V(dx)}, x1, "x1=x+dx");
  const int om3 = g.add_operation(OpType::kMul, 1, {V(m1), V(m2)}, m3, "m3=m1*m2");
  const int om4 = g.add_operation(OpType::kMul, 2, {V(y), K(c3)}, m4, "m4=3*y");
  const int oa1 = g.add_operation(OpType::kSub, 2, {V(u), V(m3)}, a1, "a1=u-m3");
  const int om5 = g.add_operation(OpType::kMul, 3, {V(m4), V(dx)}, m5, "m5=m4*dx");
  const int oy1 = g.add_operation(OpType::kAdd, 3, {V(y), V(m2)}, y1, "y1=y+m2");
  const int ou1 = g.add_operation(OpType::kSub, 4, {V(a1), V(m5)}, u1, "u1=a1-m5");
  g.validate();
  const int mul1 = b.modules.add_module("mul1", {OpType::kMul});
  const int mul2 = b.modules.add_module("mul2", {OpType::kMul});
  const int alu_sub = b.modules.add_module("sub0", {OpType::kSub});
  const int alu_add = b.modules.add_module("add0", {OpType::kAdd});
  b.modules.bind(om1, mul1);
  b.modules.bind(om3, mul1);
  b.modules.bind(om5, mul1);
  b.modules.bind(om2, mul2);
  b.modules.bind(om4, mul2);
  b.modules.bind(oa1, alu_sub);
  b.modules.bind(ou1, alu_sub);
  b.modules.bind(ox1, alu_add);
  b.modules.bind(oy1, alu_add);
  b.modules.validate(g);
  b.paper_registers = 5;
  b.paper_max_sessions = 4;
  b.paper_ref_mux_inputs = 19;
  b.paper_ref_area = 1856;
  return b;
}

Benchmark make_fir6() {
  // 6th-order (7-tap) FIR: y = sum_{i=0..6} c_i * x_i. Coefficients are
  // hard-wired constants feeding the multipliers (commutative, so the ILP
  // may steer variables and constants to either physical port).
  Benchmark b;
  b.dfg = Dfg("fir6");
  Dfg& g = b.dfg;
  std::vector<int> x, p, cst;
  for (int i = 0; i < 7; ++i) x.push_back(g.add_variable("x" + std::to_string(i)));
  for (int i = 0; i < 7; ++i) p.push_back(g.add_variable("p" + std::to_string(i)));
  std::vector<int> s;
  for (int i = 1; i <= 5; ++i) s.push_back(g.add_variable("s" + std::to_string(i)));
  const int y = g.add_variable("y");
  for (int i = 0; i < 7; ++i)
    cst.push_back(g.add_constant(0.1 * (i + 1), "c" + std::to_string(i)));
  // Multiplications: two per cycle (2 multipliers), products held until the
  // single adder chains them up — this is what pushes the register demand
  // to 7, matching the paper's fir6.
  std::vector<int> omul(7), oadd(6);
  const int mul_step[7] = {0, 0, 1, 1, 2, 2, 3};
  for (int i = 0; i < 7; ++i)
    omul[i] = g.add_operation(OpType::kMul, mul_step[i], {V(x[i]), K(cst[i])},
                              p[i], "p" + std::to_string(i));
  // Adds: s1=p0+p1 @3, s_{k}=s_{k-1}+p_{k} @3+k, y=s5+p6 @8.
  oadd[0] = g.add_operation(OpType::kAdd, 3, {V(p[0]), V(p[1])}, s[0], "s1");
  for (int k = 1; k <= 4; ++k)
    oadd[k] = g.add_operation(OpType::kAdd, 3 + k, {V(s[k - 1]), V(p[k + 1])},
                              s[k], "s" + std::to_string(k + 1));
  oadd[5] = g.add_operation(OpType::kAdd, 8, {V(s[4]), V(p[6])}, y, "y");
  g.validate();
  const int mulA = b.modules.add_module("mulA", {OpType::kMul});
  const int mulB = b.modules.add_module("mulB", {OpType::kMul});
  const int add0 = b.modules.add_module("add0", {OpType::kAdd});
  for (int i = 0; i < 7; ++i) b.modules.bind(omul[i], i % 2 == 0 ? mulA : mulB);
  for (int k = 0; k < 6; ++k) b.modules.bind(oadd[k], add0);
  b.modules.validate(g);
  b.paper_registers = 7;
  b.paper_max_sessions = 3;
  b.paper_ref_mux_inputs = 20;
  b.paper_ref_area = 2576;
  return b;
}

Benchmark make_iir3() {
  // 3rd-order IIR, direct form: w = x - a1*w1 - a2*w2 - a3*w3;
  // y = b0*w + b1*w1 + b2*w2 + b3*w3 (w1..w3 are state inputs).
  Benchmark b;
  b.dfg = Dfg("iir3");
  Dfg& g = b.dfg;
  const int x = g.add_variable("x");
  const int w1 = g.add_variable("w1");
  const int w2 = g.add_variable("w2");
  const int w3 = g.add_variable("w3");
  std::vector<int> m;
  for (int i = 1; i <= 7; ++i) m.push_back(g.add_variable("m" + std::to_string(i)));
  const int s1 = g.add_variable("s1");
  const int s2 = g.add_variable("s2");
  const int w = g.add_variable("w");
  const int s4 = g.add_variable("s4");
  const int s5 = g.add_variable("s5");
  const int y = g.add_variable("y");
  std::vector<int> cst;
  const char* cn[7] = {"a1", "a2", "a3", "b1", "b2", "b3", "b0"};
  for (int i = 0; i < 7; ++i) cst.push_back(g.add_constant(0.25 * (i + 1), cn[i]));

  const int om1 = g.add_operation(OpType::kMul, 0, {V(w1), K(cst[0])}, m[0], "m1=a1*w1");
  const int om2 = g.add_operation(OpType::kMul, 0, {V(w2), K(cst[1])}, m[1], "m2=a2*w2");
  const int om3 = g.add_operation(OpType::kMul, 1, {V(w3), K(cst[2])}, m[2], "m3=a3*w3");
  const int om4 = g.add_operation(OpType::kMul, 1, {V(w1), K(cst[3])}, m[3], "m4=b1*w1");
  const int os1 = g.add_operation(OpType::kSub, 1, {V(x), V(m[0])}, s1, "s1=x-m1");
  const int om5 = g.add_operation(OpType::kMul, 2, {V(w2), K(cst[4])}, m[4], "m5=b2*w2");
  const int om6 = g.add_operation(OpType::kMul, 2, {V(w3), K(cst[5])}, m[5], "m6=b3*w3");
  const int os2 = g.add_operation(OpType::kSub, 2, {V(s1), V(m[1])}, s2, "s2=s1-m2");
  const int ow = g.add_operation(OpType::kSub, 3, {V(s2), V(m[2])}, w, "w=s2-m3");
  const int om7 = g.add_operation(OpType::kMul, 4, {V(w), K(cst[6])}, m[6], "m7=b0*w");
  const int os4 = g.add_operation(OpType::kAdd, 4, {V(m[3]), V(m[4])}, s4, "s4=m4+m5");
  const int os5 = g.add_operation(OpType::kAdd, 5, {V(s4), V(m[5])}, s5, "s5=s4+m6");
  const int oy = g.add_operation(OpType::kAdd, 6, {V(s5), V(m[6])}, y, "y=s5+m7");
  g.validate();
  const int mulA = b.modules.add_module("mulA", {OpType::kMul});
  const int mulB = b.modules.add_module("mulB", {OpType::kMul});
  const int alu = b.modules.add_module("alu0", {OpType::kAdd, OpType::kSub});
  b.modules.bind(om1, mulA);
  b.modules.bind(om3, mulA);
  b.modules.bind(om5, mulA);
  b.modules.bind(om7, mulA);
  b.modules.bind(om2, mulB);
  b.modules.bind(om4, mulB);
  b.modules.bind(om6, mulB);
  for (int o : {os1, os2, ow, os4, os5, oy}) b.modules.bind(o, alu);
  b.modules.validate(g);
  b.paper_registers = 6;
  b.paper_max_sessions = 3;
  b.paper_ref_mux_inputs = 22;
  b.paper_ref_area = 2224;
  return b;
}

Benchmark make_dct4() {
  // 4-point DCT via the even/odd butterfly decomposition:
  //   a0=x0+x3, a1=x1+x2, a2=x0-x3, a3=x1-x2,
  //   X0=(a0+a1)*c0, X2=(a0-a1)*c0,
  //   X1=a2*c1+a3*c3, X3=a2*c3-a3*c1.
  Benchmark b;
  b.dfg = Dfg("dct4");
  Dfg& g = b.dfg;
  std::vector<int> x;
  for (int i = 0; i < 4; ++i) x.push_back(g.add_variable("x" + std::to_string(i)));
  const int a0 = g.add_variable("a0");
  const int a1 = g.add_variable("a1");
  const int a2 = g.add_variable("a2");
  const int a3 = g.add_variable("a3");
  const int b0 = g.add_variable("b0");
  const int b1 = g.add_variable("b1");
  const int p1 = g.add_variable("p1");
  const int p2 = g.add_variable("p2");
  const int p3 = g.add_variable("p3");
  const int p4 = g.add_variable("p4");
  const int X0 = g.add_variable("X0");
  const int X1 = g.add_variable("X1");
  const int X2 = g.add_variable("X2");
  const int X3 = g.add_variable("X3");
  const int c0 = g.add_constant(0.7071, "c0");
  const int c1 = g.add_constant(0.9239, "c1");
  const int c3 = g.add_constant(0.3827, "c3");

  const int oa0 = g.add_operation(OpType::kAdd, 0, {V(x[0]), V(x[3])}, a0, "a0");
  const int oa1 = g.add_operation(OpType::kAdd, 0, {V(x[1]), V(x[2])}, a1, "a1");
  const int oa2 = g.add_operation(OpType::kSub, 1, {V(x[0]), V(x[3])}, a2, "a2");
  const int oa3 = g.add_operation(OpType::kSub, 1, {V(x[1]), V(x[2])}, a3, "a3");
  const int ob0 = g.add_operation(OpType::kAdd, 2, {V(a0), V(a1)}, b0, "b0");
  const int ob1 = g.add_operation(OpType::kSub, 2, {V(a0), V(a1)}, b1, "b1");
  const int op1 = g.add_operation(OpType::kMul, 2, {V(a2), K(c1)}, p1, "p1");
  const int op2 = g.add_operation(OpType::kMul, 2, {V(a3), K(c3)}, p2, "p2");
  const int op3 = g.add_operation(OpType::kMul, 3, {V(a2), K(c3)}, p3, "p3");
  const int op4 = g.add_operation(OpType::kMul, 3, {V(a3), K(c1)}, p4, "p4");
  const int oX1 = g.add_operation(OpType::kAdd, 3, {V(p1), V(p2)}, X1, "X1");
  const int oX0 = g.add_operation(OpType::kMul, 4, {V(b0), K(c0)}, X0, "X0");
  const int oX2 = g.add_operation(OpType::kMul, 4, {V(b1), K(c0)}, X2, "X2");
  const int oX3 = g.add_operation(OpType::kSub, 4, {V(p3), V(p4)}, X3, "X3");
  g.validate();
  const int mulA = b.modules.add_module("mulA", {OpType::kMul});
  const int mulB = b.modules.add_module("mulB", {OpType::kMul});
  const int alu1 = b.modules.add_module("alu1", {OpType::kAdd, OpType::kSub});
  const int alu2 = b.modules.add_module("alu2", {OpType::kAdd, OpType::kSub});
  b.modules.bind(op1, mulA);
  b.modules.bind(op3, mulA);
  b.modules.bind(oX0, mulA);
  b.modules.bind(op2, mulB);
  b.modules.bind(op4, mulB);
  b.modules.bind(oX2, mulB);
  b.modules.bind(oa0, alu1);
  b.modules.bind(oa2, alu1);
  b.modules.bind(ob0, alu1);
  b.modules.bind(oX1, alu1);
  b.modules.bind(oX3, alu1);
  b.modules.bind(oa1, alu2);
  b.modules.bind(oa3, alu2);
  b.modules.bind(ob1, alu2);
  b.modules.validate(g);
  b.paper_registers = 6;
  b.paper_max_sessions = 4;
  b.paper_ref_mux_inputs = 24;
  b.paper_ref_area = 2320;
  return b;
}

Benchmark make_wavelet6() {
  // 6-tap wavelet analysis step: low-pass s = sum_{i=0..5} h_i*x_i plus the
  // symmetric high-pass coefficient d0 = (x0 - x5)*g0.
  Benchmark b;
  b.dfg = Dfg("wavelet6");
  Dfg& g = b.dfg;
  std::vector<int> x, p;
  for (int i = 0; i < 6; ++i) x.push_back(g.add_variable("x" + std::to_string(i)));
  for (int i = 0; i < 6; ++i) p.push_back(g.add_variable("p" + std::to_string(i)));
  const int u = g.add_variable("u");
  const int d0 = g.add_variable("d0");
  std::vector<int> s;
  for (int i = 1; i <= 5; ++i) s.push_back(g.add_variable("s" + std::to_string(i)));
  std::vector<int> cst;
  for (int i = 0; i < 6; ++i)
    cst.push_back(g.add_constant(0.33 * (i + 1), "h" + std::to_string(i)));
  const int g0 = g.add_constant(0.48, "g0");

  std::vector<int> omul(6);
  const int mul_step[6] = {0, 0, 1, 1, 2, 2};
  for (int i = 0; i < 6; ++i)
    omul[i] = g.add_operation(OpType::kMul, mul_step[i], {V(x[i]), K(cst[i])},
                              p[i], "p" + std::to_string(i));
  const int ou = g.add_operation(OpType::kSub, 0, {V(x[0]), V(x[5])}, u, "u=x0-x5");
  const int od0 = g.add_operation(OpType::kMul, 3, {V(u), K(g0)}, d0, "d0=u*g0");
  std::vector<int> oadd(5);
  oadd[0] = g.add_operation(OpType::kAdd, 3, {V(p[0]), V(p[1])}, s[0], "s1");
  for (int k = 1; k <= 4; ++k)
    oadd[k] = g.add_operation(OpType::kAdd, 3 + k, {V(s[k - 1]), V(p[k + 1])},
                              s[k], "s" + std::to_string(k + 1));
  g.validate();
  const int mulA = b.modules.add_module("mulA", {OpType::kMul});
  const int mulB = b.modules.add_module("mulB", {OpType::kMul});
  const int alu = b.modules.add_module("alu0", {OpType::kAdd, OpType::kSub});
  for (int i = 0; i < 6; ++i) b.modules.bind(omul[i], i % 2 == 0 ? mulA : mulB);
  b.modules.bind(od0, mulA);
  b.modules.bind(ou, alu);
  for (int k = 0; k < 5; ++k) b.modules.bind(oadd[k], alu);
  b.modules.validate(g);
  b.paper_registers = 7;
  b.paper_max_sessions = 3;
  b.paper_ref_mux_inputs = 25;
  b.paper_ref_area = 2880;
  return b;
}

std::vector<Benchmark> all_benchmarks() {
  std::vector<Benchmark> all;
  all.push_back(make_tseng());
  all.push_back(make_paulin());
  all.push_back(make_fir6());
  all.push_back(make_iir3());
  all.push_back(make_dct4());
  all.push_back(make_wavelet6());
  return all;
}

Benchmark benchmark_by_name(const std::string& name) {
  if (name == "fig1") return make_fig1();
  if (name == "tseng") return make_tseng();
  if (name == "paulin") return make_paulin();
  if (name == "fir6") return make_fir6();
  if (name == "iir3") return make_iir3();
  if (name == "dct4") return make_dct4();
  if (name == "wavelet6") return make_wavelet6();
  throw std::invalid_argument("unknown benchmark: " + name);
}

}  // namespace advbist::hls
