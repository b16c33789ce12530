// Design porting across technology nodes (paper Sec. IV-B / Table IV):
// train a GCN-RL agent on a circuit at 180 nm, then reuse its actor-critic
// weights to size the SAME topology at another node with a small step
// budget, against a from-scratch agent with the same budget.
//
// Usage: design_porting [target_node] [pretrain_steps] [transfer_steps]
//        (defaults: 65nm, 400, 150)
#include <cstdio>

#include "api/registry.hpp"
#include "rl/run_loop.hpp"

using namespace gcnrl;

int main(int argc, char** argv) {
  const std::string target_node = argc > 1 ? argv[1] : "65nm";
  const int pretrain_steps = argc > 2 ? std::atoi(argv[2]) : 400;
  const int transfer_steps = argc > 3 ? std::atoi(argv[3]) : 150;
  Rng rng(7);

  // --- pretrain on 180 nm ------------------------------------------------
  const auto tech_src = circuit::make_technology("180nm");
  env::SizingEnv env_src(api::build_circuit("Two-TIA", tech_src));
  env_src.calibrate(200, rng);
  rl::DdpgConfig cfg;
  cfg.warmup = 100;
  rl::DdpgAgent pretrained(env_src.state(), env_src.adjacency(),
                           env_src.kinds(), cfg, rng.split());
  std::printf("Pretraining on 180nm for %d steps...\n", pretrain_steps);
  const auto src_result = rl::run_ddpg(env_src, pretrained, pretrain_steps);
  std::printf("  180nm best FoM: %.3f\n", src_result.best_fom);

  // --- target node environment -------------------------------------------
  const auto tech_dst = circuit::make_technology(target_node);
  env::SizingEnv env_dst(api::build_circuit("Two-TIA", tech_dst));
  env_dst.calibrate(200, rng);

  // Short budget for both agents: W/3 warm-up + exploration.
  rl::DdpgConfig short_cfg;
  short_cfg.warmup = transfer_steps / 3;

  // Fresh agent (no transfer).
  env::SizingEnv env_fresh(api::build_circuit("Two-TIA", tech_dst));
  env_fresh.bench().fom = env_dst.bench().fom;  // share calibration
  rl::DdpgAgent fresh(env_fresh.state(), env_fresh.adjacency(),
                      env_fresh.kinds(), short_cfg, Rng(1001));
  const auto no_transfer = rl::run_ddpg(env_fresh, fresh, transfer_steps);

  // Transferred agent: same shapes (same circuit), weights copied.
  rl::DdpgAgent ported(env_dst.state(), env_dst.adjacency(), env_dst.kinds(),
                       short_cfg, Rng(1001));
  const int copied = ported.copy_weights_from(pretrained);
  std::printf("Transferred %d parameter tensors to %s agent.\n", copied,
              target_node.c_str());
  const auto transfer = rl::run_ddpg(env_dst, ported, transfer_steps);

  std::printf("\n%s after %d steps:\n", target_node.c_str(), transfer_steps);
  std::printf("  no transfer        : best FoM %.3f\n", no_transfer.best_fom);
  std::printf("  transfer from 180nm: best FoM %.3f\n", transfer.best_fom);
  return 0;
}
