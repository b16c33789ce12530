// Replay buffer P of Algorithm 1.
//
// The sizing MDP is single-step (state fixed per circuit, action = all
// parameters, reward = FoM), so transitions store (A, R); the state matrix
// lives once in the agent. Sampling is uniform with replacement.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "la/matrix.hpp"

namespace gcnrl::rl {

struct Transition {
  la::Mat actions;  // n x kMaxActionDim in [-1, 1]
  double reward = 0.0;
};

class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity = 100000)
      : capacity_(capacity) {}

  void push(la::Mat actions, double reward);
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  void clear() { data_.clear(); next_ = 0; }

  // Uniform sample with replacement into `out` (cleared first; no
  // allocation once its capacity reaches `batch`); batch can exceed size().
  void sample(std::size_t batch, Rng& rng,
              std::vector<const Transition*>& out) const;
  [[nodiscard]] const Transition& operator[](std::size_t i) const {
    return data_[i];
  }

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;  // ring cursor once full
  std::vector<Transition> data_;
};

}  // namespace gcnrl::rl
