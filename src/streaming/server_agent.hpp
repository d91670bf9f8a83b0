// The server and server agent — paper section 3.4.
//
// "The generator in the server renders the volume datasets into view sets
// ... also compresses each view set ... Working from the entire collection
// of requests that have been received but not yet rendered, the scheduler
// chooses the latest request to assign to the generator. After the generator
// renders a view set, per request of the scheduler, a copy is sent to the
// client agent and the pool of server depots, and the DVS is updated."
//
// The generator's *content* is produced by the attached ViewSetSource (real
// ray casting or procedural); the *time* it takes is charged on the virtual
// clock from a calibrated cost model (rendering scales with pixels per
// processor; I/O dominates, as the paper notes). Requests are scheduled LIFO
// — the most recent request is the one the interactive user is waiting on.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

#include "lightfield/builder.hpp"
#include "lors/lors.hpp"
#include "streaming/dvs.hpp"

namespace lon::streaming {

struct ServerAgentConfig {
  std::vector<std::string> depots;        ///< server depots for uploads
  int replicas = 1;
  sim::TransferOptions net;

  // --- Demand-driven replica augmentation --------------------------------------
  /// Hot reports on one view set before its replicas are fanned out to an
  /// additional depot (0 = augmentation off).
  int augment_threshold = 0;
  /// Consecutive augments of one view set are at least this far apart — the
  /// hysteresis that keeps an oscillating shed rate from flapping replicas
  /// on and off a depot.
  SimDuration augment_cooldown = 60 * kSecond;
  /// Depots eligible to receive fanned-out replicas (round-robin). Empty =
  /// the upload depot pool.
  std::vector<std::string> augment_depots;
};

class ServerAgent final : public GeneratorService {
 public:
  ServerAgent(sim::Simulator& sim, sim::Network& net, lors::Lors& lors, DvsServer& dvs,
              sim::NodeId node, std::shared_ptr<lightfield::ViewSetSource> source,
              ServerAgentConfig config, obs::Context* obs = nullptr);

  [[nodiscard]] sim::NodeId node() const { return node_; }

  // Generation cost model (virtual time).
  static constexpr int kProcessors = 32;                 ///< the paper's cluster size
  static constexpr double kPixelsPerSecPerProc = 1.5e6;  ///< ray-cast rate per CPU
  static constexpr double kIoBytesPerSec = 25e6;  ///< "most of the time ... disk I/O"

  /// Virtual-time cost of rendering + compressing + writing one view set.
  [[nodiscard]] SimDuration generation_cost() const;

  /// DVS miss path: render at runtime, upload, update the DVS, reply.
  void generate_async(const lightfield::ViewSetId& id, GenerateCallback on_done) override;

  /// Demand-pressure relay from the DVS: past the configured threshold the
  /// hot view set is fanned out to one more depot via `lors` augment (with
  /// per-id cooldown hysteresis), and the DVS learns the wider exNode.
  void note_hot(const lightfield::ViewSetId& id, const exnode::ExNode& exnode) override;

  [[nodiscard]] std::uint64_t generated_count() const {
    return metrics_.generated.value();
  }
  [[nodiscard]] std::uint64_t augment_count() const { return metrics_.augments.value(); }

 private:
  struct Request {
    lightfield::ViewSetId id;
    GenerateCallback on_done;
    obs::SpanId span = 0;  ///< server.generate span, queue wait included
  };

  struct Metrics {
    obs::Counter& requests;
    obs::Counter& generated;
    obs::Counter& upload_failures;
    obs::Counter& hot_reports;
    obs::Counter& augments;
    obs::Counter& augment_failures;
  };

  void maybe_start();
  void run_one(Request request);
  void augment(const lightfield::ViewSetId& id, const exnode::ExNode& exnode);

  sim::Simulator& sim_;
  sim::Network& net_;
  lors::Lors& lors_;
  DvsServer& dvs_;
  sim::NodeId node_;
  std::shared_ptr<lightfield::ViewSetSource> source_;
  ServerAgentConfig config_;
  obs::Context& obs_;
  obs::Scope scope_;
  Metrics metrics_;

  std::deque<Request> pending_;  // back = latest; scheduler pops the back (LIFO)
  bool busy_ = false;            // the generator is rendering or uploading

  // Augmentation state.
  std::unordered_map<lightfield::ViewSetId, int, lightfield::ViewSetIdHash> hot_counts_;
  std::unordered_map<lightfield::ViewSetId, SimTime, lightfield::ViewSetIdHash>
      augment_not_before_;  ///< per-id cooldown gate (hysteresis)
  std::size_t augment_rr_ = 0;
};

}  // namespace lon::streaming
