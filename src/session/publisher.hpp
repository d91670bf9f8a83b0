// Offline database publication.
//
// "The rendering of all view sets can be completely pre-computed off-line"
// (paper section 3.4). The publisher builds view sets from a source, uploads
// them to the server depots via LoRS, and installs the exNodes into the DVS.
//
// For large streaming experiments only a subset of view sets is ever
// decompressed by the client; the rest are moved around (prefetched, staged)
// but their pixels never matter. The `real_ids` option builds genuine
// compressed view sets for that subset and size-matched filler objects for
// everything else, keeping multi-gigabyte experiments tractable. Filler
// sizes are drawn around the measured mean compressed size so transfer and
// staging behaviour is faithful.
#pragma once

#include <vector>

#include "lightfield/builder.hpp"
#include "lors/lors.hpp"
#include "streaming/dvs.hpp"

namespace lon::session {

/// Uploads use LoRS's default block size and streaming::kDatabaseLease.
struct PublishOptions {
  std::vector<std::string> depots;   ///< upload stripe targets
  int replicas = 1;
  sim::TransferOptions net;

  /// Build real pixel content for these ids only; empty = all ids real
  /// (unless all_filler is set).
  std::vector<lightfield::ViewSetId> real_ids;
  /// Publish size-matched filler for *every* view set (pure transfer-shape
  /// studies where the client never decodes). One real view set is still
  /// built to calibrate the filler size.
  bool all_filler = false;
};

struct PublishResult {
  std::size_t published = 0;
  std::size_t failed = 0;
  std::size_t real = 0;
  std::uint64_t compressed_bytes = 0;    ///< total uploaded
  std::uint64_t uncompressed_bytes = 0;  ///< pixel bytes represented
  double mean_compressed = 0.0;          ///< per view set
  /// The owner's catalog: one exNode per published view set, with manage
  /// capabilities. The DVS copies are for readers; lease maintenance and
  /// repair sweeps work from these.
  std::vector<std::pair<lightfield::ViewSetId, exnode::ExNode>> exnodes;
};

/// Publishes the whole database described by `source` (blocking: pumps the
/// simulator until every upload completes). exNodes are installed into the
/// DVS directly — offline publication happens out of band.
PublishResult publish_database(sim::Simulator& sim, lors::Lors& lors,
                               streaming::DvsServer& dvs,
                               lightfield::ViewSetSource& source, sim::NodeId server_node,
                               const PublishOptions& options);

}  // namespace lon::session
