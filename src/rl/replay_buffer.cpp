#include "rl/replay_buffer.hpp"

namespace gcnrl::rl {

void ReplayBuffer::push(la::Mat actions, double reward) {
  if (data_.size() < capacity_) {
    data_.push_back({std::move(actions), reward});
  } else {
    data_[next_] = {std::move(actions), reward};
    next_ = (next_ + 1) % capacity_;
  }
}

void ReplayBuffer::sample(std::size_t batch, Rng& rng,
                          std::vector<const Transition*>& out) const {
  out.clear();
  for (std::size_t i = 0; i < batch && !data_.empty(); ++i) {
    out.push_back(&data_[rng.uniform_index(data_.size())]);
  }
}

}  // namespace gcnrl::rl
