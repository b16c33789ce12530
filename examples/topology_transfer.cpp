// Knowledge transfer across topologies (paper Sec. IV-C / Table V):
// train on the two-stage TIA, transfer to the three-stage TIA (both at
// 180 nm). This requires IndexMode::Scalar so the per-component state
// dimension is topology-independent (paper Sec. III-E), and it is where
// the GCN matters: with NG-RL (no aggregation) transferred knowledge does
// not help, as the paper's Table V shows.
//
// Usage: topology_transfer [pretrain_steps] [transfer_steps]
//        (defaults: 400, 150)
#include <cstdio>

#include "api/registry.hpp"
#include "rl/run_loop.hpp"

using namespace gcnrl;

namespace {

double transfer_run(bool use_gcn, env::SizingEnv& src_env,
                    env::SizingEnv& dst_env, int pretrain_steps,
                    int transfer_steps) {
  rl::DdpgConfig cfg;
  cfg.warmup = 100;
  cfg.use_gcn = use_gcn;
  rl::DdpgAgent src_agent(src_env.state(), src_env.adjacency(),
                          src_env.kinds(), cfg, Rng(11));
  rl::run_ddpg(src_env, src_agent, pretrain_steps);

  rl::DdpgConfig short_cfg = cfg;
  short_cfg.warmup = transfer_steps / 3;
  rl::DdpgAgent dst_agent(dst_env.state(), dst_env.adjacency(),
                          dst_env.kinds(), short_cfg, Rng(12));
  dst_agent.copy_weights_from(src_agent);
  return rl::run_ddpg(dst_env, dst_agent, transfer_steps).best_fom;
}

}  // namespace

int main(int argc, char** argv) {
  const int pretrain_steps = argc > 1 ? std::atoi(argv[1]) : 400;
  const int transfer_steps = argc > 2 ? std::atoi(argv[2]) : 150;
  const auto tech = circuit::make_technology("180nm");
  Rng rng(3);

  // Scalar component index keeps state_dim identical across topologies.
  env::SizingEnv two(api::build_circuit("Two-TIA", tech), env::IndexMode::Scalar);
  env::SizingEnv three(api::build_circuit("Three-TIA", tech),
                       env::IndexMode::Scalar);
  two.calibrate(200, rng);
  three.calibrate(200, rng);

  // Baseline: fresh GCN-RL on Three-TIA with the short budget.
  rl::DdpgConfig cfg;
  cfg.warmup = transfer_steps / 3;
  rl::DdpgAgent fresh(three.state(), three.adjacency(), three.kinds(), cfg,
                      Rng(12));
  env::SizingEnv three_b(api::build_circuit("Three-TIA", tech),
                         env::IndexMode::Scalar);
  three_b.bench().fom = three.bench().fom;
  const double no_transfer =
      rl::run_ddpg(three_b, fresh, transfer_steps).best_fom;

  std::printf("Two-TIA -> Three-TIA, %d pretrain / %d transfer steps\n",
              pretrain_steps, transfer_steps);
  const double gcn = transfer_run(true, two, three, pretrain_steps,
                                  transfer_steps);
  // Rebuild source env for the NG run so both see fresh replay histories.
  env::SizingEnv two_b(api::build_circuit("Two-TIA", tech), env::IndexMode::Scalar);
  two_b.bench().fom = two.bench().fom;
  env::SizingEnv three_c(api::build_circuit("Three-TIA", tech),
                         env::IndexMode::Scalar);
  three_c.bench().fom = three.bench().fom;
  const double ng = transfer_run(false, two_b, three_c, pretrain_steps,
                                 transfer_steps);

  std::printf("  no transfer      : %.3f\n", no_transfer);
  std::printf("  NG-RL transfer   : %.3f\n", ng);
  std::printf("  GCN-RL transfer  : %.3f\n", gcn);
  return 0;
}
