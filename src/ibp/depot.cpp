#include "ibp/depot.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/buffer_pool.hpp"

namespace lon::ibp {

void Snapshot::copy_to(std::uint8_t* dst) const {
  if (buffer) {
    util::copy_payload(dst, data(), length);
  } else {
    std::fill_n(dst, length, std::uint8_t{0});
  }
}

Bytes Snapshot::to_bytes() const {
  if (!buffer) return Bytes(length, 0);
  util::account_payload_copy(length);
  return Bytes(data(), data() + length);
}

const char* to_string(IbpStatus status) {
  switch (status) {
    case IbpStatus::kOk:
      return "ok";
    case IbpStatus::kRefused:
      return "refused";
    case IbpStatus::kNoCapacity:
      return "no-capacity";
    case IbpStatus::kNotFound:
      return "not-found";
    case IbpStatus::kExpired:
      return "expired";
    case IbpStatus::kRevoked:
      return "revoked";
    case IbpStatus::kBadCapability:
      return "bad-capability";
    case IbpStatus::kBadRange:
      return "bad-range";
    case IbpStatus::kTimeout:
      return "timeout";
  }
  return "?";
}

Depot::Depot(sim::Simulator& sim, std::string name, const DepotConfig& config)
    : sim_(sim), name_(std::move(name)), config_(config), rng_(config.rng_seed) {
  if (name_.empty()) throw std::invalid_argument("Depot: empty name");
  if (config_.capacity_bytes == 0) throw std::invalid_argument("Depot: zero capacity");
}

void Depot::set_disk_rate(double bytes_per_sec) {
  if (bytes_per_sec <= 0.0) throw std::invalid_argument("Depot: non-positive disk rate");
  config_.disk_bytes_per_sec = bytes_per_sec;
}

Depot::AllocResult Depot::allocate(const AllocRequest& request) {
  AllocResult result;
  // Admission policy first: an oversized or overlong request is refused
  // outright, before any soft allocation is disturbed.
  if (request.size == 0 || request.size > config_.max_alloc_bytes ||
      request.lease <= 0 || request.lease > config_.max_lease) {
    result.status = IbpStatus::kRefused;
    return result;
  }
  if (!make_room(request.size)) {
    result.status = IbpStatus::kNoCapacity;
    return result;
  }

  Allocation alloc;
  alloc.id = next_id_++;
  alloc.size = request.size;
  for (auto& key : alloc.keys) key = rng_.next() | 1;  // never zero
  alloc.expires = sim_.now() + request.lease;
  alloc.type = request.type;
  alloc.last_access = sim_.now();

  used_ += request.size;

  auto make_cap = [&](CapKind kind) {
    Capability cap;
    cap.depot = name_;
    cap.allocation = alloc.id;
    cap.key = alloc.keys[static_cast<int>(kind)];
    cap.kind = kind;
    return cap;
  };
  result.caps.read = make_cap(CapKind::kRead);
  result.caps.write = make_cap(CapKind::kWrite);
  result.caps.manage = make_cap(CapKind::kManage);
  allocations_.emplace(alloc.id, std::move(alloc));
  return result;
}

IbpStatus Depot::find(const Capability& cap, CapKind required, Allocation** out) {
  *out = nullptr;
  if (cap.depot != name_) return IbpStatus::kBadCapability;
  if (cap.kind != required) return IbpStatus::kBadCapability;
  auto it = allocations_.find(cap.allocation);
  if (it == allocations_.end()) {
    auto tomb = tombstones_.find(cap.allocation);
    return tomb == tombstones_.end() ? IbpStatus::kNotFound : tomb->second;
  }
  Allocation& alloc = it->second;
  if (sim_.now() >= alloc.expires) {
    // Lazy lease reclamation.
    reclaim(alloc.id, IbpStatus::kExpired);
    return IbpStatus::kExpired;
  }
  if (alloc.keys[static_cast<int>(required)] != cap.key) return IbpStatus::kBadCapability;
  alloc.last_access = sim_.now();
  *out = &alloc;
  return IbpStatus::kOk;
}

IbpStatus Depot::store(const Capability& write_cap, std::uint64_t offset,
                       const Snapshot& data) {
  Allocation* alloc = nullptr;
  if (const IbpStatus s = find(write_cap, CapKind::kWrite, &alloc); s != IbpStatus::kOk) {
    return s;
  }
  if (offset > alloc->size || data.length > alloc->size - offset) {
    return IbpStatus::kBadRange;
  }
  const bool whole_buffer =
      data.offset == 0 && (!data.buffer || data.buffer->size() == data.length);
  if (offset == 0 && data.length == alloc->size && whole_buffer) {
    alloc->data = data.buffer;
  } else if (data.length > 0) {
    // Copy-on-write: snapshots of the old buffer keep seeing the old bytes.
    std::shared_ptr<Bytes> next;
    if (alloc->data) {
      next = std::make_shared<Bytes>(*alloc->data);
      util::account_payload_copy(alloc->size);
    } else {
      next = std::make_shared<Bytes>(alloc->size, 0);
    }
    data.copy_to(next->data() + offset);
    alloc->data = std::move(next);
  }
  alloc->high_water = std::max<std::uint64_t>(alloc->high_water, offset + data.length);
  return IbpStatus::kOk;
}

IbpStatus Depot::store(const Capability& write_cap, std::uint64_t offset,
                       std::span<const std::uint8_t> data) {
  util::account_payload_copy(data.size());
  return store(write_cap, offset,
               Snapshot{std::make_shared<Bytes>(data.begin(), data.end()), 0,
                        data.size()});
}

IbpStatus Depot::load(const Capability& read_cap, std::uint64_t offset, std::uint64_t length,
                      Snapshot& out) {
  Allocation* alloc = nullptr;
  if (const IbpStatus s = find(read_cap, CapKind::kRead, &alloc); s != IbpStatus::kOk) {
    return s;
  }
  if (offset > alloc->size || length > alloc->size - offset) return IbpStatus::kBadRange;
  out = Snapshot{alloc->data, offset, length};
  return IbpStatus::kOk;
}

IbpStatus Depot::load(const Capability& read_cap, std::uint64_t offset, std::uint64_t length,
                      Bytes& out) {
  Snapshot snapshot;
  const IbpStatus status = load(read_cap, offset, length, snapshot);
  if (status == IbpStatus::kOk) out = snapshot.to_bytes();
  return status;
}

IbpStatus Depot::probe(const Capability& manage_cap, AllocInfo& out) {
  Allocation* alloc = nullptr;
  if (const IbpStatus s = find(manage_cap, CapKind::kManage, &alloc); s != IbpStatus::kOk) {
    return s;
  }
  out.size = alloc->size;
  out.bytes_written = alloc->high_water;
  out.expires = alloc->expires;
  out.type = alloc->type;
  return IbpStatus::kOk;
}

IbpStatus Depot::extend(const Capability& manage_cap, SimDuration extra) {
  Allocation* alloc = nullptr;
  if (const IbpStatus s = find(manage_cap, CapKind::kManage, &alloc); s != IbpStatus::kOk) {
    return s;
  }
  if (extra <= 0 || extra > config_.max_lease) return IbpStatus::kRefused;
  alloc->expires = sim_.now() + extra;
  return IbpStatus::kOk;
}

IbpStatus Depot::release(const Capability& manage_cap) {
  Allocation* alloc = nullptr;
  if (const IbpStatus s = find(manage_cap, CapKind::kManage, &alloc); s != IbpStatus::kOk) {
    return s;
  }
  const std::uint64_t id = alloc->id;
  reclaim(id, IbpStatus::kNotFound);
  return IbpStatus::kOk;
}

std::size_t Depot::sweep_expired() {
  std::vector<std::uint64_t> dead;
  for (const auto& [id, alloc] : allocations_) {
    if (sim_.now() >= alloc.expires) dead.push_back(id);
  }
  for (const std::uint64_t id : dead) {
    reclaim(id, IbpStatus::kExpired);
  }
  return dead.size();
}

std::uint64_t Depot::bytes_free() const { return config_.capacity_bytes - used_; }

bool Depot::make_room(std::uint64_t needed) {
  if (needed > config_.capacity_bytes) return false;
  if (bytes_free() >= needed) return true;

  // First drop anything whose lease already ran out.
  sweep_expired();
  if (bytes_free() >= needed) return true;

  // Then revoke soft allocations, least recently accessed first — the IBP
  // "storage can be revoked at any time" semantics that make sharing safe.
  std::vector<const Allocation*> soft;
  for (const auto& [id, alloc] : allocations_) {
    if (alloc.type == AllocType::kSoft) soft.push_back(&alloc);
  }
  std::sort(soft.begin(), soft.end(), [](const Allocation* x, const Allocation* y) {
    return x->last_access < y->last_access;
  });
  for (const Allocation* victim : soft) {
    if (bytes_free() >= needed) break;
    reclaim(victim->id, IbpStatus::kRevoked);
  }
  return bytes_free() >= needed;
}

void Depot::reclaim(std::uint64_t id, IbpStatus reason) {
  auto it = allocations_.find(id);
  if (it == allocations_.end()) return;
  used_ -= it->second.size;
  allocations_.erase(it);
  tombstones_[id] = reason;
}

}  // namespace lon::ibp
