// The reverse-mode tape (tests/autograd/) and what it is the oracle for.
//
// First, gradient correctness: every tape op is checked against central
// finite differences through non-trivial composite expressions. Then the
// library's hand-written passes (nn::Linear, nn::GcnLayer, rl::GcnActor,
// rl::GcnCritic, rl::critic_backward, rl::actor_backward, rl::DdpgAgent)
// are checked against the tape bit for bit, and a DdpgAgent update is
// checked to allocate nothing.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "autograd/networks.hpp"
#include "autograd/ops.hpp"
#include "autograd/tape.hpp"
#include "common/rng.hpp"
#include "heap_counter.hpp"
#include "nn/adam.hpp"
#include "rl/ddpg.hpp"

namespace ag = gcnrl::ag;
namespace la = gcnrl::la;
namespace nn = gcnrl::nn;
namespace rl = gcnrl::rl;
using gcnrl::Rng;
using gcnrl::circuit::Kind;

using gcnrl::testing::g_heap_allocs;

namespace {

la::Mat random_mat(int r, int c, Rng& rng, double scale = 1.0) {
  la::Mat m(r, c);
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) m(i, j) = rng.uniform(-scale, scale);
  }
  return m;
}

// Checks d(loss)/d(input) against central differences. `f` maps tape+input
// Var to a scalar Var.
void check_gradient(const la::Mat& x0,
                    const std::function<ag::Var(ag::Tape&, ag::Var)>& f,
                    double tol = 1e-6) {
  ag::Tape tape;
  ag::Var x = tape.input(x0);
  ag::Var loss = f(tape, x);
  ASSERT_EQ(loss.rows(), 1);
  ASSERT_EQ(loss.cols(), 1);
  tape.backward(loss);
  la::Mat analytic = x.grad();

  const double h = 1e-6;
  for (int r = 0; r < x0.rows(); ++r) {
    for (int c = 0; c < x0.cols(); ++c) {
      la::Mat xp = x0, xm = x0;
      xp(r, c) += h;
      xm(r, c) -= h;
      ag::Tape tp;
      const double lp = f(tp, tp.input(xp)).value()(0, 0);
      ag::Tape tm;
      const double lm = f(tm, tm.input(xm)).value()(0, 0);
      const double numeric = (lp - lm) / (2.0 * h);
      EXPECT_NEAR(analytic(r, c), numeric, tol)
          << "at (" << r << "," << c << ")";
    }
  }
}

}  // namespace

TEST(Autograd, ScalarChain) {
  // loss = mean( 3 * x + 1 )  =>  dloss/dx = 3/n each.
  la::Mat x0{{1.0, -2.0}, {0.5, 4.0}};
  check_gradient(x0, [](ag::Tape&, ag::Var x) {
    return ag::mean_all(ag::add_scalar(ag::scale(x, 3.0), 1.0));
  });
}

TEST(Autograd, MatmulBothSides) {
  Rng rng(1);
  la::Mat a0 = random_mat(3, 4, rng);
  la::Mat b0 = random_mat(4, 2, rng);
  // Gradient w.r.t. A with B constant-but-differentiable as input too.
  check_gradient(a0, [&](ag::Tape& t, ag::Var a) {
    ag::Var b = t.input(b0);
    return ag::sum_all(ag::matmul(a, b));
  });
  check_gradient(b0, [&](ag::Tape& t, ag::Var b) {
    ag::Var a = t.input(a0);
    return ag::sum_all(ag::matmul(a, b));
  });
}

TEST(Autograd, MatmulConstLeft) {
  Rng rng(2);
  la::Mat k = random_mat(3, 3, rng);
  la::Mat h0 = random_mat(3, 5, rng);
  check_gradient(h0, [&](ag::Tape&, ag::Var h) {
    return ag::sum_all(ag::relu(ag::matmul_const_left(k, h)));
  });
}

TEST(Autograd, AddSubHadamard) {
  Rng rng(3);
  la::Mat a0 = random_mat(4, 3, rng);
  la::Mat b0 = random_mat(4, 3, rng);
  check_gradient(a0, [&](ag::Tape& t, ag::Var a) {
    ag::Var b = t.input(b0);
    return ag::mean_all(ag::hadamard(ag::add(a, b), ag::sub(a, b)));
  });
}

TEST(Autograd, HadamardConstMask) {
  Rng rng(4);
  la::Mat a0 = random_mat(3, 3, rng);
  la::Mat mask(3, 3);
  mask(0, 0) = 1.0;
  mask(1, 1) = 1.0;
  check_gradient(a0, [&](ag::Tape&, ag::Var a) {
    return ag::sum_all(ag::hadamard_const(a, mask));
  });
}

TEST(Autograd, RowBroadcast) {
  Rng rng(5);
  la::Mat m0 = random_mat(4, 3, rng);
  la::Mat r0 = random_mat(1, 3, rng);
  check_gradient(r0, [&](ag::Tape& t, ag::Var row) {
    ag::Var m = t.input(m0);
    return ag::mean_all(ag::tanh_(ag::add_row_broadcast(m, row)));
  });
  check_gradient(m0, [&](ag::Tape& t, ag::Var m) {
    ag::Var row = t.input(r0);
    return ag::mean_all(ag::tanh_(ag::add_row_broadcast(m, row)));
  });
}

TEST(Autograd, Activations) {
  Rng rng(6);
  la::Mat x0 = random_mat(3, 4, rng, 2.0);
  // Nudge values away from the ReLU kink where finite differences lie.
  for (int r = 0; r < x0.rows(); ++r) {
    for (int c = 0; c < x0.cols(); ++c) {
      if (std::fabs(x0(r, c)) < 1e-3) x0(r, c) = 0.1;
    }
  }
  check_gradient(x0, [](ag::Tape&, ag::Var x) {
    return ag::sum_all(ag::relu(x));
  });
  check_gradient(x0, [](ag::Tape&, ag::Var x) {
    return ag::sum_all(ag::tanh_(x));
  });
  check_gradient(x0, [](ag::Tape&, ag::Var x) {
    return ag::sum_all(ag::sigmoid(x));
  });
}

TEST(Autograd, MseConst) {
  Rng rng(7);
  la::Mat x0 = random_mat(4, 2, rng);
  la::Mat target = random_mat(4, 2, rng);
  check_gradient(x0, [&](ag::Tape&, ag::Var x) {
    return ag::mse_const(x, target);
  });
}

TEST(Autograd, ConcatCols) {
  Rng rng(8);
  la::Mat a0 = random_mat(3, 2, rng);
  la::Mat b0 = random_mat(3, 4, rng);
  check_gradient(a0, [&](ag::Tape& t, ag::Var a) {
    ag::Var b = t.input(b0);
    return ag::mean_all(ag::tanh_(ag::concat_cols(a, b)));
  });
  check_gradient(b0, [&](ag::Tape& t, ag::Var b) {
    ag::Var a = t.input(a0);
    return ag::mean_all(ag::tanh_(ag::concat_cols(a, b)));
  });
}

TEST(Autograd, DeepCompositeChain) {
  // A little MLP-shaped composite: mean(tanh(relu(X W1 + b) W2)).
  Rng rng(9);
  la::Mat x0 = random_mat(5, 4, rng);
  la::Mat w1 = random_mat(4, 6, rng);
  la::Mat b1 = random_mat(1, 6, rng);
  la::Mat w2 = random_mat(6, 2, rng);
  check_gradient(
      x0,
      [&](ag::Tape& t, ag::Var x) {
        ag::Var h = ag::relu(
            ag::add_row_broadcast(ag::matmul(x, t.input(w1)), t.input(b1)));
        return ag::mean_all(ag::tanh_(ag::matmul(h, t.input(w2))));
      },
      1e-5);
}

TEST(Autograd, ConstantsBlockGradients) {
  ag::Tape tape;
  ag::Var c = tape.constant(la::Mat{{1.0, 2.0}});
  ag::Var x = tape.input(la::Mat{{3.0, 4.0}});
  ag::Var loss = ag::sum_all(ag::hadamard(c, x));
  tape.backward(loss);
  EXPECT_DOUBLE_EQ(x.grad()(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(x.grad()(0, 1), 2.0);
  // Constant's grad stays zero (no pullback ran into it... it's just
  // untouched storage).
  EXPECT_DOUBLE_EQ(c.grad()(0, 0), 0.0);
}

TEST(Autograd, BackwardRequiresScalarRoot) {
  ag::Tape tape;
  ag::Var x = tape.input(la::Mat{{1.0, 2.0}});
  EXPECT_THROW(tape.backward(x), std::invalid_argument);
}

TEST(Autograd, MixedTapeRejected) {
  ag::Tape t1, t2;
  ag::Var a = t1.input(la::Mat{{1.0}});
  ag::Var b = t2.input(la::Mat{{1.0}});
  EXPECT_THROW(ag::add(a, b), std::invalid_argument);
}

TEST(Autograd, GradientAccumulatesOverReuse) {
  // loss = sum(x + x) => dloss/dx = 2.
  ag::Tape tape;
  ag::Var x = tape.input(la::Mat{{1.5}});
  ag::Var loss = ag::sum_all(ag::add(x, x));
  tape.backward(loss);
  EXPECT_DOUBLE_EQ(x.grad()(0, 0), 2.0);
}

// ---------------------------------------------------------------------
// The tape as the oracle of the library's hand-written passes.

namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Bit-for-bit equality of two matrices; returns the count of nonzero
// entries so a caller can also insist the comparison was not vacuous.
int expect_bitwise(const la::Mat& got, const la::Mat& want,
                   const std::string& what) {
  EXPECT_TRUE(got.same_shape(want)) << what;
  if (!got.same_shape(want)) return 0;
  int nonzero = 0;
  for (int i = 0; i < want.rows(); ++i) {
    for (int j = 0; j < want.cols(); ++j) {
      EXPECT_EQ(bits(got(i, j)), bits(want(i, j)))
          << what << "(" << i << "," << j << "): " << got(i, j) << " vs "
          << want(i, j);
      nonzero += want(i, j) != 0.0 ? 1 : 0;
    }
  }
  return nonzero;
}

std::vector<la::Mat> grads_of(const std::vector<nn::Parameter*>& ps) {
  std::vector<la::Mat> out;
  for (const nn::Parameter* p : ps) out.push_back(p->grad);
  return out;
}

void zero_grads(const std::vector<nn::Parameter*>& ps) {
  for (nn::Parameter* p : ps) p->zero_grad();
}

// Every parameter's grad against `want`, bit for bit, and not all zero.
void expect_grads_bitwise(const std::vector<nn::Parameter*>& ps,
                          const std::vector<la::Mat>& want,
                          const std::string& what) {
  ASSERT_EQ(ps.size(), want.size()) << what;
  int nonzero = 0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    nonzero += expect_bitwise(ps[i]->grad, want[i], what + " " + ps[i]->name);
  }
  EXPECT_GT(nonzero, 0) << what;
}

// A circuit-shaped input: an n-node graph (a chain plus random chords),
// kinds covering all four, and a state laid out like SizingEnv's one-hot
// state (node index, kind, then three scalar features), so exact zeros
// reach every skip in the kernels.
struct Graph {
  int n = 0;
  la::Mat state;
  la::Mat adjacency;
  std::vector<Kind> kinds;
};

Graph random_graph(int n, std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  g.n = n;
  g.adjacency = la::Mat(n, n);
  for (int i = 0; i + 1 < n; ++i) {
    g.adjacency(i, i + 1) = g.adjacency(i + 1, i) = 1.0;
  }
  for (int c = 0; c < n / 3; ++c) {
    const auto i = static_cast<int>(rng.uniform_index(n));
    const auto j = static_cast<int>(rng.uniform_index(n));
    if (i != j) g.adjacency(i, j) = g.adjacency(j, i) = 1.0;
  }
  for (int i = 0; i < n; ++i) {
    g.kinds.push_back(i < gcnrl::circuit::kNumKinds
                          ? static_cast<Kind>(i)
                          : static_cast<Kind>(rng.uniform_index(2)));
  }
  const int extra = 3;
  g.state = la::Mat(n, n + gcnrl::circuit::kNumKinds + extra);
  for (int i = 0; i < n; ++i) {
    g.state(i, i) = 1.0;
    g.state(i, n + static_cast<int>(g.kinds[i])) = 1.0;
    for (int f = 0; f < extra; ++f) {
      g.state(i, n + gcnrl::circuit::kNumKinds + f) = rng.uniform(-1.0, 1.0);
    }
  }
  return g;
}

la::Mat random_actions(int n, Rng& rng) {
  la::Mat a(n, gcnrl::circuit::kMaxActionDim);
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) a(i, j) = rng.uniform(-1.0, 1.0);
  }
  return a;
}

// The network inputs DdpgAgent derives from a graph.
struct NetInputs {
  rl::NetworkConfig cfg;
  la::Mat a_hat;
  rl::TypeMasks masks;
};

NetInputs net_inputs(const Graph& g, bool use_gcn) {
  NetInputs in;
  in.cfg.state_dim = g.state.cols();
  in.cfg.use_gcn = use_gcn;
  in.a_hat = use_gcn ? nn::normalized_adjacency(g.adjacency)
                     : la::Mat::identity(g.n);
  in.masks = rl::make_type_masks(g.kinds, in.cfg.hidden);
  return in;
}

// The batch's regression loss on ONE tape: each sample's graph, a running
// add() chain of the per-sample losses, one 1/B scale, one backward pass.
void tape_critic_batch(const std::vector<nn::Parameter*>& ps,
                       const la::Mat& state, const NetInputs& in,
                       std::span<const rl::Transition* const> batch,
                       double baseline) {
  ag::Tape tape;
  ag::Var loss;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ag::Var q = ag::critic_forward(tape, ps, tape.constant(state),
                                   tape.constant(batch[i]->actions), in.a_hat,
                                   in.masks);
    la::Mat target(1, 1);
    target(0, 0) = batch[i]->reward - baseline;
    ag::Var l = ag::mse_const(q, target);
    loss = i == 0 ? l : ag::add(loss, l);
  }
  loss = ag::scale(loss, 1.0 / static_cast<double>(batch.size()));
  tape.backward(loss);
}

// One small tape per sample, visited last to first.
void tape_critic_per_sample(const std::vector<nn::Parameter*>& ps,
                            const la::Mat& state, const NetInputs& in,
                            std::span<const rl::Transition* const> batch,
                            double baseline) {
  const double inv_b = 1.0 / static_cast<double>(batch.size());
  for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
    ag::Tape tape;
    ag::Var q = ag::critic_forward(tape, ps, tape.constant(state),
                                   tape.constant((*it)->actions), in.a_hat,
                                   in.masks);
    la::Mat target(1, 1);
    target(0, 0) = (*it)->reward - baseline;
    tape.backward(ag::scale(ag::mse_const(q, target), inv_b));
  }
}

// B random transitions; B = 5 makes 1/B inexact, and the batch repeats
// one transition, as sampling with replacement does.
struct Batch {
  std::vector<rl::Transition> data;
  std::vector<const rl::Transition*> ptrs;
};

Batch random_batch(int n, std::size_t b, Rng& rng) {
  Batch out;
  out.data.resize(b);
  for (rl::Transition& t : out.data) {
    t.actions = random_actions(n, rng);
    t.reward = rng.uniform(-3.0, 3.0);
  }
  for (const rl::Transition& t : out.data) out.ptrs.push_back(&t);
  out.ptrs[1] = out.ptrs[b - 1];
  return out;
}

struct Case {
  int n;
  bool use_gcn;
};

// Two-TIA's and Two-Volt's node counts, on A-hat and on the identity.
constexpr Case kCases[] = {{9, true}, {9, false}, {23, true}, {23, false}};

std::string case_name(const Case& c) {
  return "n=" + std::to_string(c.n) + (c.use_gcn ? " gcn" : " ng");
}

}  // namespace

// The per-sample tapes, visited last to first, reproduce the one-tape
// batch loss bit for bit, not merely to rounding: a reverse sweep over one
// tape reaches sample B-1's parameter leaves first. This is the order the
// hand-written critic_backward keeps.
TEST(Ddpg, PerSampleCriticTapesMatchOneTapeBatchBitwise) {
  const Graph g = random_graph(6, 17);
  const NetInputs in = net_inputs(g, true);
  for (const std::size_t b : {std::size_t{32}, std::size_t{5}}) {
    Rng rng(21 + b);
    rl::GcnCritic critic(in.cfg, rng);
    const Batch batch = random_batch(g.n, b, rng);
    const auto ps = critic.parameters();
    zero_grads(ps);
    tape_critic_batch(ps, g.state, in, batch.ptrs, 0.37);
    const std::vector<la::Mat> want = grads_of(ps);
    zero_grads(ps);
    tape_critic_per_sample(ps, g.state, in, batch.ptrs, 0.37);
    expect_grads_bitwise(ps, want, "B=" + std::to_string(b));
  }
}

TEST(AgentOracle, CriticGradientsMatchTapeBitwise) {
  for (const Case& c : kCases) {
    const Graph g = random_graph(c.n, 100 + c.n);
    const NetInputs in = net_inputs(g, c.use_gcn);
    rl::GcnCritic::Pass pass(g.n, in.cfg);
    for (const std::size_t b : {std::size_t{32}, std::size_t{5}}) {
      Rng rng(31 + b + c.n);
      rl::GcnCritic critic(in.cfg, rng);
      const Batch batch = random_batch(g.n, b, rng);
      const auto ps = critic.parameters();
      zero_grads(ps);
      tape_critic_batch(ps, g.state, in, batch.ptrs, -0.21);
      const std::vector<la::Mat> want = grads_of(ps);
      zero_grads(ps);
      rl::critic_backward(critic, pass, g.state, in.a_hat, in.masks,
                          batch.ptrs, -0.21);
      expect_grads_bitwise(ps, want,
                           case_name(c) + " B=" + std::to_string(b));
    }
  }
}

// The actor differentiates through a critic one optimizer step past its
// init, as in DdpgAgent::update().
TEST(AgentOracle, ActorGradientsMatchTapeBitwise) {
  for (const Case& c : kCases) {
    const Graph g = random_graph(c.n, 200 + c.n);
    const NetInputs in = net_inputs(g, c.use_gcn);
    Rng rng(41 + c.n);
    rl::GcnActor actor(in.cfg, rng);
    rl::GcnCritic critic(in.cfg, rng);
    rl::GcnActor::Pass actor_pass(g.n, in.cfg);
    rl::GcnCritic::Pass critic_pass(g.n, in.cfg);
    const Batch batch = random_batch(g.n, 8, rng);
    nn::Adam opt_critic(critic.parameters(), 2e-3);
    opt_critic.zero_grad();
    rl::critic_backward(critic, critic_pass, g.state, in.a_hat, in.masks,
                        batch.ptrs, 0.5);
    opt_critic.step();

    const auto actor_ps = actor.parameters();
    const auto critic_ps = critic.parameters();
    zero_grads(actor_ps);
    la::Mat tape_mu;
    {
      ag::Tape tape;
      ag::Var a = ag::actor_forward(tape, actor_ps, tape.constant(g.state),
                                    in.a_hat, in.masks);
      ag::Var q = ag::critic_forward(tape, critic_ps, tape.constant(g.state),
                                     a, in.a_hat, in.masks);
      tape.backward(ag::scale(q, -1.0));
      tape_mu = a.value();
    }
    const std::vector<la::Mat> want = grads_of(actor_ps);
    zero_grads(actor_ps);
    const std::vector<la::Mat> critic_grads = grads_of(critic_ps);
    rl::actor_backward(actor, actor_pass, critic, critic_pass, g.state,
                       in.a_hat, in.masks);
    expect_grads_bitwise(actor_ps, want, case_name(c));
    expect_bitwise(actor_pass.out, tape_mu, case_name(c) + " mu(S)");
    for (std::size_t i = 0; i < critic_ps.size(); ++i) {
      expect_bitwise(critic_ps[i]->grad, critic_grads[i],
                     case_name(c) + " untouched " + critic_ps[i]->name);
    }
  }
}

// act() and q_value() of an agent whose weights have moved through a few
// updates, against tape forwards over the agent's own parameters.
TEST(AgentOracle, ActAndQValueMatchTapeBitwise) {
  for (const Case& c : kCases) {
    const Graph g = random_graph(c.n, 300 + c.n);
    const NetInputs in = net_inputs(g, c.use_gcn);
    rl::DdpgConfig cfg;
    cfg.use_gcn = c.use_gcn;
    cfg.warmup = 3;
    cfg.batch = 8;
    rl::DdpgAgent agent(g.state, g.adjacency, g.kinds, cfg, Rng(51 + c.n));
    Rng reward_rng(61);
    for (int ep = 0; ep < 6; ++ep) {
      agent.observe(agent.act_explore(), reward_rng.uniform(-1.0, 1.0));
    }
    const auto ps = agent.parameters();
    const auto split = ps.begin() + 2 + 2 * cfg.gcn_layers +
                       2 * gcnrl::circuit::kNumKinds;
    const std::vector<nn::Parameter*> actor_ps(ps.begin(), split);
    const std::vector<nn::Parameter*> critic_ps(split, ps.end());

    ag::Tape tape;
    const la::Mat mu = ag::actor_forward(tape, actor_ps,
                                         tape.constant(g.state), in.a_hat,
                                         in.masks)
                           .value();
    EXPECT_GT(expect_bitwise(agent.act(), mu, case_name(c) + " act()"), 0);
    Rng action_rng(71);
    for (const la::Mat& a : {mu, random_actions(g.n, action_rng)}) {
      const double q = ag::critic_forward(tape, critic_ps,
                                          tape.constant(g.state),
                                          tape.constant(a), in.a_hat,
                                          in.masks)
                           .value()(0, 0);
      EXPECT_EQ(bits(agent.q_value(a)), bits(q)) << case_name(c);
    }
  }
}

TEST(AgentOracle, SecondUpdateAllocatesNothing) {
  for (const Case& c : kCases) {
    const Graph g = random_graph(c.n, 400 + c.n);
    rl::DdpgConfig cfg;
    cfg.use_gcn = c.use_gcn;
    cfg.warmup = 100;  // observe() only fills the replay buffer
    rl::DdpgAgent agent(g.state, g.adjacency, g.kinds, cfg, Rng(81));
    for (int ep = 0; ep < 5; ++ep) {
      agent.observe(agent.act_explore(), 0.1 * ep);
    }
    agent.update();
    const long before = g_heap_allocs.load();
    agent.update();
    EXPECT_EQ(g_heap_allocs.load() - before, 0) << case_name(c);
    // The counter is live: act() returns a fresh matrix.
    const la::Mat a = agent.act();
    EXPECT_GT(g_heap_allocs.load() - before, 0) << case_name(c);
  }
}

// The layers' hand-written passes against manual values and the tape.

TEST(Linear, ForwardMatchesManual) {
  Rng rng(2);
  nn::Linear lin("l", 3, 2, rng);
  la::Mat x{{1.0, 2.0, 3.0}, {-1.0, 0.5, 0.0}};
  la::Mat y(2, 2);
  lin.forward(x, y);
  ag::Tape tape;
  ag::Var y_tape = ag::linear(tape, lin, tape.input(x));
  const la::Mat& w = lin.parameters()[0]->value;
  const la::Mat& b = lin.parameters()[1]->value;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      double expect = b(0, c);
      for (int k = 0; k < 3; ++k) expect += x(r, k) * w(k, c);
      EXPECT_NEAR(y(r, c), expect, 1e-12);
    }
  }
  expect_bitwise(y, y_tape.value(), "y");
}

TEST(Linear, GradientsFlowToParameters) {
  Rng rng(3);
  nn::Linear lin("l", 2, 2, rng);
  la::Mat x{{1.0, -1.0}};
  // loss = sum(x W + b): the gradient at y is 1 everywhere.
  zero_grads(lin.parameters());
  lin.accumulate_grads(x, la::Mat(1, 2, 1.0));
  const std::vector<la::Mat> got = grads_of(lin.parameters());
  // d loss / d b = 1 per output; d loss / d w = x^T broadcast.
  EXPECT_DOUBLE_EQ(got[1](0, 0), 1.0);
  EXPECT_DOUBLE_EQ(got[1](0, 1), 1.0);
  EXPECT_DOUBLE_EQ(got[0](0, 0), 1.0);
  EXPECT_DOUBLE_EQ(got[0](1, 1), -1.0);
  zero_grads(lin.parameters());
  ag::Tape tape;
  tape.backward(ag::sum_all(ag::linear(tape, lin, tape.input(x))));
  expect_grads_bitwise(lin.parameters(), got, "tape");
}

TEST(Gcn, IdentityAdjacencyEqualsSharedFc) {
  // With A-hat = I the GCN layer must behave exactly like a Linear with
  // the same weights (the NG-RL ablation).
  Rng rng(5);
  nn::GcnLayer gcn("g", 3, 2, rng);
  la::Mat x{{0.3, -0.2, 1.0}, {0.1, 0.8, -0.5}};
  const la::Mat eye = la::Mat::identity(2);
  la::Mat agg(2, 3), y(2, 2);
  gcn.forward(eye, x, agg, y);
  ag::Tape tape;
  ag::Var y_tape = ag::gcn_layer(tape, gcn, tape.input(x), eye);
  const la::Mat& w = gcn.parameters()[0]->value;
  const la::Mat& b = gcn.parameters()[1]->value;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      double expect = b(0, c);
      for (int k = 0; k < 3; ++k) expect += x(r, k) * w(k, c);
      EXPECT_NEAR(y(r, c), expect, 1e-12);
    }
  }
  expect_bitwise(y, y_tape.value(), "y");
}

TEST(Gcn, AggregationMixesNeighbors) {
  Rng rng(6);
  nn::GcnLayer gcn("g", 1, 1, rng);
  la::Mat a{{0.0, 1.0}, {1.0, 0.0}};
  const la::Mat ahat = nn::normalized_adjacency(a);
  la::Mat x{{1.0}, {3.0}};
  la::Mat agg(2, 1), y(2, 1);
  gcn.forward(ahat, x, agg, y);
  // Both rows aggregate to 0.5*(1+3) = 2 before the affine map -> equal.
  EXPECT_NEAR(y(0, 0), y(1, 0), 1e-12);
  ag::Tape tape;
  expect_bitwise(y, ag::gcn_layer(tape, gcn, tape.input(x), ahat).value(),
                 "y");
}
