// Whole-simulation checkpoint files (DESIGN.md §14).
//
// A simulation's event queue holds closures, which cannot be serialized —
// so a Faucets checkpoint is *replay-verified*: it pins everything needed
// to reproduce the run deterministically (the scenario text, the effective
// CLI overrides) plus a fingerprint of the simulation's durable state at the
// checkpoint instant (the encoded Central Server state, the executed-event
// count). `--restore` re-runs the
// scenario from t = 0 and *proves* it passed through the checkpointed
// state byte-for-byte at time T before letting the run continue — restored
// artifacts are then byte-identical to an uninterrupted run by determinism,
// not by hope.
//
// File format: 8-byte magic "FAUCCKP\x01" (the framing), then u32 length +
// u32 CRC-32 framing one encoded body:
//
//   u32 version (= 2) | string scenario_text | u32 n_overrides | n x
//   (string flag, string value) | f64 sim_time | u64 executed |
//   string state_image
//
// Version policy: readers reject any other body version outright, naming
// it (a checkpoint is a precise replay contract, not a migratable
// database); a layout change bumps kVersion.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace faucets::store {

struct Checkpoint {
  static constexpr std::uint32_t kVersion = 2;

  std::string scenario_text;  // the full INI the run was parsed from
  /// Simulation-affecting CLI overrides, re-applied verbatim on restore.
  std::vector<std::pair<std::string, std::string>> overrides;
  double sim_time = 0.0;        // the pause boundary the state was captured at
  std::uint64_t executed = 0;   // engine events executed by T
  std::string state_image;      // encoded Central Server durable state at T

  /// Serialize to / parse from the framed on-disk format. write_file is
  /// atomic (tmp + rename); read_file throws std::runtime_error on a
  /// missing, torn, or wrong-version file.
  void write_file(const std::string& path) const;
  [[nodiscard]] static Checkpoint read_file(const std::string& path);

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static Checkpoint decode(const std::string& body);
};

}  // namespace faucets::store
