#include "serve/cache.h"

#include "transfer/hash.h"

namespace ctrtl::serve {

bool DesignCache::Alias::matches(const RequestBytes& request) const {
  return has_fault_plan == request.has_fault_plan &&
         design_text == request.design_text &&
         fault_plan_text == request.fault_plan_text;
}

std::uint64_t DesignCache::digest_of(const RequestBytes& request) {
  transfer::StreamHasher hasher;
  hasher.update(request.design_text);
  hasher.update(static_cast<std::uint8_t>(request.has_fault_plan ? 1 : 0));
  hasher.update(request.fault_plan_text);
  return hasher.digest();
}

DesignCache::Entries::const_iterator DesignCache::aliased(
    const RequestBytes& request, std::uint64_t digest) const {
  const auto indexed = index_.find(digest);
  if (indexed == index_.end()) {
    return entries_.end();
  }
  const auto entry = entries_.find(indexed->second);
  // A digest collision is not a hit: the caller takes the full pipeline.
  return entry->second.alias->matches(request) ? entry : entries_.end();
}

std::shared_ptr<const transfer::CompiledDesign> DesignCache::find(
    const RequestBytes& request, std::uint64_t* key) {
  const std::uint64_t digest = digest_of(request);
  std::unique_lock lock(mutex_);
  const auto entry = aliased(request, digest);
  if (entry == entries_.end()) {
    return nullptr;
  }
  ++counters_.hits;
  order_.splice(order_.begin(), order_, entry->second.order);
  if (key != nullptr) {
    *key = entry->first;
  }
  return entry->second.design;
}

bool DesignCache::indexed(const RequestBytes& request) const {
  const std::uint64_t digest = digest_of(request);
  std::unique_lock lock(mutex_);
  return aliased(request, digest) != entries_.end();
}

std::shared_ptr<const transfer::CompiledDesign> DesignCache::get_or_compile(
    std::uint64_t key, const Compile& compile, bool* hit,
    const RequestBytes* request) {
  const std::uint64_t digest = request != nullptr ? digest_of(*request) : 0;
  const auto report = [hit](bool value) {
    if (hit != nullptr) {
      *hit = value;
    }
  };
  std::unique_lock lock(mutex_);
  if (const auto it = entries_.find(key); it != entries_.end()) {
    ++counters_.hits;
    report(true);
    order_.splice(order_.begin(), order_, it->second.order);
    if (request != nullptr) {
      set_alias(key, it->second, *request, digest);
    }
    return it->second.design;
  }
  if (const auto it = flights_.find(key); it != flights_.end()) {
    // Another lookup is compiling this key: wait for its result.
    ++counters_.hits;
    report(true);
    const std::shared_ptr<Flight> flight = it->second;
    compiled_.wait(lock, [&flight] { return flight->done; });
    if (flight->error) {
      std::rethrow_exception(flight->error);
    }
    if (request != nullptr) {
      if (const auto entry = entries_.find(key); entry != entries_.end()) {
        set_alias(key, entry->second, *request, digest);
      }
    }
    return flight->design;
  }
  ++counters_.misses;
  report(false);
  if (capacity_ == 0) {
    lock.unlock();
    return compile();
  }

  // Compile outside the lock; lookups of this key wait on the flight.
  const auto flight = std::make_shared<Flight>();
  flights_.emplace(key, flight);
  lock.unlock();
  try {
    flight->design = compile();
  } catch (...) {
    lock.lock();
    flight->error = std::current_exception();
    flight->done = true;
    flights_.erase(key);
    compiled_.notify_all();
    throw;
  }
  lock.lock();
  flight->done = true;
  flights_.erase(key);
  insert(key, flight->design, request, digest);
  compiled_.notify_all();
  return flight->design;
}

void DesignCache::insert(std::uint64_t key,
                         std::shared_ptr<const transfer::CompiledDesign> design,
                         const RequestBytes* request, std::uint64_t digest) {
  order_.push_front(key);
  Entry& entry =
      entries_.emplace(key, Entry{std::move(design), order_.begin(), {}})
          .first->second;
  if (request != nullptr) {
    set_alias(key, entry, *request, digest);
  }
  while (entries_.size() > capacity_) {
    const std::uint64_t victim = order_.back();
    order_.pop_back();
    const auto evicted = entries_.find(victim);
    if (evicted->second.alias) {
      index_.erase(evicted->second.alias->digest);
    }
    entries_.erase(evicted);
    ++counters_.evictions;
  }
}

void DesignCache::set_alias(std::uint64_t key, Entry& entry,
                            const RequestBytes& request, std::uint64_t digest) {
  if (entry.alias && entry.alias->digest == digest &&
      entry.alias->matches(request)) {
    return;
  }
  if (entry.alias) {
    index_.erase(entry.alias->digest);
  }
  // On a digest collision the newest request takes the index slot over.
  const auto [slot, inserted] = index_.try_emplace(digest, key);
  if (!inserted) {
    entries_.at(slot->second).alias.reset();
    slot->second = key;
  }
  entry.alias = Alias{digest, std::string(request.design_text),
                      request.has_fault_plan,
                      std::string(request.fault_plan_text)};
}

DesignCache::Stats DesignCache::stats() const {
  std::unique_lock lock(mutex_);
  Stats out = counters_;
  out.entries = entries_.size();
  return out;
}

}  // namespace ctrtl::serve
