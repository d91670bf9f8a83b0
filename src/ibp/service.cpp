#include "ibp/service.hpp"

#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace lon::ibp {

Depot& Fabric::add_depot(sim::NodeId node, const std::string& name,
                         const DepotConfig& config) {
  if (depots_.contains(name)) throw std::invalid_argument("Fabric: duplicate depot " + name);
  auto [it, inserted] =
      depots_.emplace(name, Hosted{Depot(sim_, name, config), node});
  return it->second.depot;
}

Depot* Fabric::find_depot(const std::string& name) {
  auto it = depots_.find(name);
  return it == depots_.end() ? nullptr : &it->second.depot;
}

const Depot* Fabric::find_depot(const std::string& name) const {
  auto it = depots_.find(name);
  return it == depots_.end() ? nullptr : &it->second.depot;
}

sim::NodeId Fabric::depot_node(const std::string& name) const {
  auto it = depots_.find(name);
  if (it == depots_.end()) throw std::out_of_range("Fabric: unknown depot " + name);
  return it->second.node;
}

void Fabric::reply_to(sim::NodeId depot_node, sim::NodeId client, std::function<void()> fn) {
  if (!net_.reachable(depot_node, client)) {
    metrics_.requests_lost.inc();
    return;
  }
  sim_.after(net_.path_latency(depot_node, client), std::move(fn));
}

bool Fabric::dropped(const std::string& depot) {
  if (drop_ && drop_(depot)) {
    metrics_.requests_dropped.inc();
    return true;
  }
  return false;
}

void Fabric::run_corrupt_hook(const std::string& depot, Snapshot& payload) {
  if (!corrupt_) return;
  // Silent corruption happens here: the depot believes it served the bytes
  // it stored. The hook edits a private copy, which may change its length.
  Bytes served = payload.to_bytes();
  corrupt_(depot, served);
  const std::uint64_t length = served.size();
  payload = Snapshot{std::make_shared<Bytes>(std::move(served)), 0, length};
}

SimDuration Fabric::book_disk(Hosted& hosted, std::uint64_t bytes) {
  const double rate = hosted.depot.config().disk_bytes_per_sec;
  const auto service =
      static_cast<SimDuration>(static_cast<double>(bytes) / rate * 1e9);
  const SimTime start = std::max(sim_.now(), hosted.disk_busy_until);
  hosted.disk_busy_until = start + service;
  return hosted.disk_busy_until - sim_.now();
}

void Fabric::set_offline(const std::string& name, bool offline) {
  auto it = depots_.find(name);
  if (it == depots_.end()) throw std::out_of_range("Fabric: unknown depot " + name);
  const bool was_offline = it->second.offline;
  it->second.offline = offline;
  if (offline && !was_offline) {
    // A crashed depot neither sends nor receives: bulk flows with the depot
    // as an endpoint must not complete delivery as if nothing happened.
    metrics_.flows_killed_offline.inc(net_.cancel_node_flows(it->second.node));
  }
}

bool Fabric::is_offline(const std::string& name) const {
  auto it = depots_.find(name);
  if (it == depots_.end()) throw std::out_of_range("Fabric: unknown depot " + name);
  return it->second.offline;
}

SimTime Fabric::disk_busy_until(const std::string& depot) const {
  auto it = depots_.find(depot);
  if (it == depots_.end()) throw std::out_of_range("Fabric: unknown depot " + depot);
  return it->second.disk_busy_until;
}

// --- The prologue every remote operation shares --------------------------------

namespace {

/// Reports a failure to `cb`: the status, and a default value for each other
/// argument.
template <typename... Rest>
void fail(const std::function<void(IbpStatus, Rest...)>& cb, IbpStatus status) {
  cb(status, std::decay_t<Rest>{}...);
}

}  // namespace

template <typename... Rest>
void Fabric::not_found(std::function<void(IbpStatus, Rest...)> cb) {
  sim_.after(0, [cb = std::move(cb)] { fail(cb, IbpStatus::kNotFound); });
}

template <typename... Rest>
Fabric::Hosted* Fabric::open(const std::string& depot, SimDuration timeout,
                             std::function<void(IbpStatus, Rest...)>& cb) {
  auto it = depots_.find(depot);
  if (it == depots_.end()) {
    not_found(std::move(cb));
    return nullptr;
  }
  cb = with_deadline(timeout, std::move(cb));
  if (dropped(depot)) return nullptr;
  return &it->second;
}

template <typename... Rest, typename Serve>
void Fabric::at_depot(sim::NodeId client, Hosted& hosted,
                      std::function<void(IbpStatus, Rest...)> cb, Serve serve) {
  if (!net_.reachable(client, hosted.node)) {
    // Partition: the request vanishes. Only the caller's deadline reports it.
    metrics_.requests_lost.inc();
    return;
  }
  const SimDuration delay = net_.path_latency(client, hosted.node) + kDepotOpOverhead;
  sim_.after(delay, [this, client, &hosted, cb = std::move(cb),
                     serve = std::move(serve)]() mutable {
    if (hosted.offline) {
      reply_to(hosted.node, client,
               [cb = std::move(cb)] { fail(cb, IbpStatus::kRefused); });
      return;
    }
    serve(std::move(cb));
  });
}

template <typename... Rest>
std::function<void(IbpStatus, Rest...)> Fabric::with_deadline(
    SimDuration timeout, std::function<void(IbpStatus, Rest...)> cb) {
  if (timeout <= 0 || !cb) return cb;
  struct Guard {
    bool done = false;
    sim::TimerId timer = 0;
  };
  auto guard = std::make_shared<Guard>();
  guard->timer = sim_.after(timeout, [this, guard, cb] {
    if (guard->done) return;
    guard->done = true;
    metrics_.timeouts.inc();
    fail(cb, IbpStatus::kTimeout);
  });
  return [this, guard, cb = std::move(cb)](IbpStatus status, Rest... rest) {
    if (guard->done) return;
    guard->done = true;
    sim_.cancel(guard->timer);
    cb(status, std::forward<Rest>(rest)...);
  };
}

// --- Remote operations ------------------------------------------------------------

void Fabric::allocate_async(sim::NodeId client, const std::string& depot,
                            const AllocRequest& request, AllocCallback on_done) {
  Hosted* hosted = open(depot, timeouts_.control, on_done);
  if (hosted == nullptr) return;
  at_depot(client, *hosted, std::move(on_done),
           [this, client, hosted, request](AllocCallback cb) {
             const auto result = hosted->depot.allocate(request);
             // Reply travels back to the client.
             reply_to(hosted->node, client,
                      [result, cb = std::move(cb)] { cb(result.status, result.caps); });
           });
}

void Fabric::store_async(sim::NodeId client, const Capability& write_cap,
                         std::uint64_t offset, Bytes data,
                         const sim::TransferOptions& net_options, StoreCallback on_done) {
  Hosted* hosted = open(write_cap.depot, timeouts_.data, on_done);
  if (hosted == nullptr) return;
  if (!net_.reachable(client, hosted->node)) {
    metrics_.requests_lost.inc();
    return;
  }
  // The payload is a bulk flow from the client to the depot; the store
  // executes when the final byte lands. The depot keeps the moved-in buffer
  // itself when the store covers the whole allocation.
  const std::uint64_t length = data.size();
  const Snapshot payload{std::make_shared<Bytes>(std::move(data)), 0, length};
  net_.start_transfer(
      client, hosted->node, length, net_options,
      [this, client, hosted, write_cap, offset, payload,
       cb = std::move(on_done)](const sim::TransferResult& r) {
        if (r.cancelled || hosted->offline) {
          cb(IbpStatus::kRefused);
          return;
        }
        // The write queues behind whatever the depot disk is already doing.
        const SimDuration disk = book_disk(*hosted, payload.length);
        sim_.after(disk, [this, client, hosted, write_cap, offset, payload, cb] {
          const IbpStatus status = hosted->depot.store(write_cap, offset, payload);
          reply_to(hosted->node, client, [status, cb] { cb(status); });
        });
      });
}

void Fabric::load_async(sim::NodeId client, const Capability& read_cap,
                        std::uint64_t offset, std::uint64_t length,
                        const sim::TransferOptions& net_options, std::shared_ptr<Bytes> dest,
                        std::uint64_t dest_offset, LoadCallback on_done) {
  Hosted* hosted = open(read_cap.depot, timeouts_.data, on_done);
  if (hosted == nullptr) return;
  // Request travels to the depot; the depot reads and streams the bytes back.
  at_depot(
      client, *hosted, std::move(on_done),
      [this, client, hosted, read_cap, offset, length, opts = net_options,
       dest = std::move(dest), dest_offset](LoadCallback cb) {
        Snapshot payload;
        const IbpStatus status = hosted->depot.load(read_cap, offset, length, payload);
        if (status != IbpStatus::kOk) {
          reply_to(hosted->node, client, [status, cb = std::move(cb)] { cb(status, 0); });
          return;
        }
        run_corrupt_hook(read_cap.depot, payload);
        // The read waits its turn on the depot disk before streaming.
        const SimDuration disk = book_disk(*hosted, payload.length);
        sim_.after(disk, [this, client, hosted, payload, opts, dest, dest_offset,
                          cb = std::move(cb)] {
          if (!net_.reachable(hosted->node, client)) {
            metrics_.requests_lost.inc();
            return;
          }
          // The request leg above already served as connection setup.
          sim::TransferOptions flow = opts;
          flow.handshake = false;
          net_.start_transfer(
              hosted->node, client, payload.length, flow,
              [payload, dest, dest_offset, cb](const sim::TransferResult& r) {
                // Written so it cannot wrap: an extent offset near
                // 2^64 must not land before the slab.
                if (r.cancelled || dest_offset > dest->size() ||
                    payload.length > dest->size() - dest_offset) {
                  cb(IbpStatus::kRefused, 0);
                  return;
                }
                payload.copy_to(dest->data() + dest_offset);
                cb(IbpStatus::kOk, payload.length);
              });
        });
      });
}

void Fabric::probe_async(sim::NodeId client, const Capability& manage_cap,
                         ProbeCallback on_done) {
  Hosted* hosted = open(manage_cap.depot, timeouts_.control, on_done);
  if (hosted == nullptr) return;
  at_depot(client, *hosted, std::move(on_done),
           [this, client, hosted, manage_cap](ProbeCallback cb) {
             AllocInfo info;
             const IbpStatus status = hosted->depot.probe(manage_cap, info);
             reply_to(hosted->node, client,
                      [status, info, cb = std::move(cb)] { cb(status, info); });
           });
}

void Fabric::extend_async(sim::NodeId client, const Capability& manage_cap,
                          SimDuration extra, ManageCallback on_done) {
  Hosted* hosted = open(manage_cap.depot, timeouts_.control, on_done);
  if (hosted == nullptr) return;
  at_depot(client, *hosted, std::move(on_done),
           [this, client, hosted, manage_cap, extra](ManageCallback cb) {
             const IbpStatus status = hosted->depot.extend(manage_cap, extra);
             reply_to(hosted->node, client, [status, cb = std::move(cb)] { cb(status); });
           });
}

void Fabric::release_async(sim::NodeId client, const Capability& manage_cap,
                           ManageCallback on_done) {
  Hosted* hosted = open(manage_cap.depot, timeouts_.control, on_done);
  if (hosted == nullptr) return;
  at_depot(client, *hosted, std::move(on_done),
           [this, client, hosted, manage_cap](ManageCallback cb) {
             const IbpStatus status = hosted->depot.release(manage_cap);
             reply_to(hosted->node, client, [status, cb = std::move(cb)] { cb(status); });
           });
}

void Fabric::copy_async(sim::NodeId client, const CopyRequest& request,
                        CopyCallback on_done) {
  auto src_it = depots_.find(request.src_read.depot);
  if (src_it == depots_.end()) {
    not_found(std::move(on_done));
    return;
  }
  Hosted* src = &src_it->second;
  Hosted* dst = open(request.dst_depot, timeouts_.data, on_done);
  if (dst == nullptr) return;

  // Step 1: allocate space on the destination depot.
  at_depot(client, *dst, std::move(on_done), [this, client, src, dst,
                                              request](CopyCallback cb) {
    const auto alloc = dst->depot.allocate(request.dst_alloc);
    if (alloc.status != IbpStatus::kOk) {
      reply_to(dst->node, client,
               [status = alloc.status, cb = std::move(cb)] { fail(cb, status); });
      return;
    }
    // Step 2: command the source depot to push (control hop client -> src;
    // issued immediately after the allocate reply would have arrived —
    // modelled as the dst->client + client->src legs in sequence).
    reply_to(dst->node, client, [this, client, src, dst, request, caps = alloc.caps,
                                 cb = std::move(cb)]() mutable {
      at_depot(client, *src, std::move(cb), [this, client, src, dst, request,
                                             caps](CopyCallback cb) {
        Snapshot payload;
        const IbpStatus status =
            src->depot.load(request.src_read, request.src_offset, request.length, payload);
        if (status != IbpStatus::kOk) {
          reply_to(src->node, client, [status, cb = std::move(cb)] { fail(cb, status); });
          return;
        }
        // Step 3: the bulk flow runs depot-to-depot; the client is not on
        // the data path ("third party communication without consuming
        // resources on either the client or the client agent"). The source
        // disk must read the bytes first; the destination disk writes them
        // after arrival — both queue FIFO on their depot's disk. The
        // destination allocation then shares the source's buffer.
        const SimDuration src_disk = book_disk(*src, payload.length);
        sim_.after(src_disk, [this, client, src, dst, request, caps, payload,
                              cb = std::move(cb)]() mutable {
          if (!net_.reachable(src->node, dst->node)) {
            metrics_.requests_lost.inc();
            return;
          }
          net_.start_transfer(
              src->node, dst->node, payload.length, request.net,
              [this, client, dst, caps, payload,
               cb = std::move(cb)](const sim::TransferResult& r) {
                if (r.cancelled) {
                  fail(cb, IbpStatus::kRefused);
                  return;
                }
                const SimDuration dst_disk = book_disk(*dst, payload.length);
                sim_.after(dst_disk, [this, client, dst, caps, payload, cb] {
                  const IbpStatus status = dst->depot.store(caps.write, 0, payload);
                  // Step 4: completion ack to the orchestrating client.
                  reply_to(dst->node, client, [status, caps, cb] { cb(status, caps); });
                });
              });
        });
      });
    });
  });
}

}  // namespace lon::ibp
