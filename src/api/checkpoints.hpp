// Named checkpoint artifacts: the zoo the transfer protocol draws from.
//
// A checkpoint is the full actor/critic parameter set of a trained agent,
// stored under a user-chosen name and stamped with what it was trained on
// (circuit tag, technology node, index mode). TaskSpec::save_checkpoint /
// load_checkpoint address this store by name, so a spec file can pretrain
// once and warm-start any number of later tasks — including tasks in a
// different process, via the disk tier.
//
// Two tiers:
//   memory  always on; artifacts live for the store's lifetime.
//   disk    opt-in; when the store has a directory (explicitly, or via
//           GCNRL_CHECKPOINT_DIR for the default store), every put() also
//           writes `<dir>/<sanitized-name>.gcr` in the versioned
//           nn/serialize format with the stamp in the metadata section,
//           and load() falls back to disk on a memory miss. A warm start
//           from the disk tier is bit-identical to one from memory (both
//           end in the same by-name tensor assignment).
//
// Stamp checking on load — mismatches fail loudly instead of silently
// producing a garbage warm start:
//   index mode   must match exactly (state layouts differ).
//   circuit      must match under OneHot (the one-hot index block ties the
//                state encoding to one topology); any circuit is accepted
//                under Scalar — cross-topology transfer is the point of
//                that mode (paper Sec. III-E).
//   source       under OneHot, when both sides carry a source fingerprint,
//                they must match: two same-named circuits from *different*
//                .gcir content are different topologies even though the
//                circuit tag agrees. Either side empty skips the check
//                (old artifacts carry no fingerprint).
//   node         never checked — cross-node transfer is the headline
//                protocol (Table IV).
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "env/sizing_env.hpp"
#include "nn/serialize.hpp"

namespace gcnrl::api {

// What an artifact was trained on. `circuit` and `node` are the registry /
// technology names; `mode` is the state-index mode of the training env;
// `source` is the circuit's content fingerprint (api::circuit_source_tag —
// "gcir:<hash>" for shipped and file-registered circuits, "" for C++
// builders).
struct CheckpointStamp {
  std::string circuit;
  std::string node;
  env::IndexMode mode = env::IndexMode::OneHot;
  std::string source;
};

class CheckpointStore {
 public:
  // Memory tier only.
  CheckpointStore() = default;
  // Memory tier plus a disk tier rooted at `dir` (created on first put;
  // empty string = memory only).
  explicit CheckpointStore(std::string dir);

  // Stores a deep copy of `params` under `name` (overwriting any previous
  // artifact of that name in both tiers). Throws std::runtime_error when
  // the disk tier is on and the file cannot be written.
  void put(const std::string& name, const std::vector<nn::Parameter*>& params,
           const CheckpointStamp& stamp);

  // True when `name` is resolvable from either tier.
  [[nodiscard]] bool contains(const std::string& name) const;

  // Loads `name` into `dst` (strict by-name assignment: every destination
  // parameter must be matched in name and shape). Checks the stored stamp
  // against `expect` per the rules above. Throws std::runtime_error on a
  // missing artifact, a stamp mismatch, or an unmatched parameter; returns
  // the number of tensors copied.
  int load(const std::string& name, const std::vector<nn::Parameter*>& dst,
           const CheckpointStamp& expect) const;

  // Memory-tier artifact names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  // Drops every memory-tier artifact (disk files are left alone).
  void clear();

  [[nodiscard]] const std::string& dir() const { return dir_; }

  // The on-disk file a name maps to (empty when the disk tier is off).
  [[nodiscard]] std::string path_of(const std::string& name) const;

 private:
  struct Entry {
    CheckpointStamp stamp;
    std::vector<nn::NamedTensor> tensors;
  };

  std::string dir_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> mem_;
};

// The process-wide store run_tasks uses when RunOptions::checkpoints is
// null. Its disk tier comes from GCNRL_CHECKPOINT_DIR (read once, at first
// use); unset means memory only.
CheckpointStore& default_checkpoint_store();

}  // namespace gcnrl::api
