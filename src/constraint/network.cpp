#include "constraint/network.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <new>
#include <utility>

#include "util/error.hpp"

namespace adpm::constraint {

namespace {

/// An interval's two bounds as raw bits: memo keys compare and hash these,
/// so -0.0 and +0.0 are different keys.
struct Bits {
  std::uint64_t lo;
  std::uint64_t hi;
  bool operator==(const Bits&) const = default;
};

Bits bitsOf(const interval::Interval& x) noexcept {
  return std::bit_cast<Bits>(x);
}

constexpr std::uint8_t kFeasible = 1;
constexpr std::uint8_t kNarrowed = 2;

std::uint64_t mixWord(std::uint64_t h, std::uint64_t w) noexcept {
  h = (h ^ w) * 0x9E3779B97F4A7C15ull;
  return h ^ (h >> 32);
}

std::uint64_t mixBits(std::uint64_t h, const Bits& b) noexcept {
  return mixWord(mixWord(h, b.lo), b.hi);
}

std::uint64_t finishHash(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  return h ^ (h >> 33);
}

/// The index hash of a revise key: what buildIndex computes from an entry.
std::uint64_t keyHash(ConstraintId c,
                      std::span<const interval::Interval> before) noexcept {
  std::uint64_t h = mixWord(0, c.value);
  for (const interval::Interval& x : before) h = mixBits(h, bitsOf(x));
  return finishHash(h);
}

}  // namespace

/// The memo's fixed block: one half per generation.  Entries are 12 bytes;
/// each holds `arity` input value ids at `ids[offset]`, followed (when
/// narrowed) by `arity` output ids.  `values` starts with the recorded
/// run's initial box, then one value per argument a revise actually
/// changed.  Every member is trivially default-constructible, so
/// constructing the block touches no page.
struct ReviseMemo::Storage {
  static constexpr std::size_t kSlots = 2 * kMaxEntries;
  static constexpr std::size_t kMaxIds = 8 * kMaxEntries;
  static constexpr std::size_t kMaxValues = 2 * kMaxEntries;

  struct Entry {
    std::uint32_t constraint;
    std::uint32_t offset;
    std::uint16_t arity;
    std::uint8_t flags;
    Status status;
  };
  static_assert(sizeof(Entry) == 12);

  struct Half {
    Entry entries[kMaxEntries];
    /// Open-addressing index: entry index + 1, 0 = empty.
    std::uint32_t slots[kSlots];
    std::uint32_t ids[kMaxIds];
    Bits values[kMaxValues];
  };
  Half half[2];
};

void ReviseMemo::Unmap::operator()(Storage* s) const noexcept {
  s->~Storage();
  ::munmap(s, sizeof(Storage));
}

ReviseMemo::ReviseMemo(ReviseMemo&& other) noexcept
    : storage_(std::move(other.storage_)),
      valueIds_(std::move(other.valueIds_)),
      state_(std::exchange(other.state_, State{})) {}

ReviseMemo& ReviseMemo::operator=(ReviseMemo&& other) noexcept {
  storage_ = std::move(other.storage_);
  valueIds_ = std::move(other.valueIds_);
  state_ = std::exchange(other.state_, State{});
  return *this;
}

std::size_t ReviseMemo::mappedBytes() const noexcept {
  return storage_ ? sizeof(Storage) : 0;
}

bool ReviseMemo::beginRecording(std::uint64_t generation,
                                std::span<const interval::Interval> box) {
  if (generation == state_.half[state_.current].generation) return false;
  // The current generation becomes the previous one, frozen with its
  // index; the older one is dropped.
  state_.current ^= 1;
  Fill& fill = state_.half[state_.current];
  fill = Fill{.generation = generation};
  if (!storage_) {
    void* block = ::mmap(nullptr, sizeof(Storage), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (block == MAP_FAILED) return false;  // run without a memo
    storage_.reset(new (block) Storage);
  }
  if (box.size() > Storage::kMaxValues) return false;
  Storage::Half& h = storage_->half[state_.current];
  valueIds_.resize(box.size());
  for (std::size_t i = 0; i < box.size(); ++i) {
    h.values[i] = bitsOf(box[i]);
    valueIds_[i] = static_cast<std::uint32_t>(i);
  }
  fill.values = box.size();
  fill.recording = true;
  return true;
}

void ReviseMemo::record(ConstraintId c, const Outcome& outcome,
                        std::span<const PropertyId> args,
                        std::span<const interval::Interval> box) {
  Fill& fill = state_.half[state_.current];
  if (!fill.recording) return;
  Storage::Half& h = storage_->half[state_.current];
  const std::size_t arity = args.size();
  if (fill.entries == kMaxEntries || fill.ids + 2 * arity > Storage::kMaxIds ||
      fill.values + arity > Storage::kMaxValues) {
    fill.recording = false;
    return;
  }
  h.entries[fill.entries++] = Storage::Entry{
      c.value, static_cast<std::uint32_t>(fill.ids),
      static_cast<std::uint16_t>(arity),
      static_cast<std::uint8_t>((outcome.feasible ? kFeasible : 0) |
                                (outcome.narrowed ? kNarrowed : 0)),
      outcome.status};
  for (const PropertyId a : args) h.ids[fill.ids++] = valueIds_[a.value];
  if (!outcome.narrowed) return;
  for (const PropertyId a : args) {
    const Bits after = bitsOf(box[a.value]);
    if (!(after == h.values[valueIds_[a.value]])) {
      h.values[fill.values] = after;
      valueIds_[a.value] = static_cast<std::uint32_t>(fill.values++);
    }
    h.ids[fill.ids++] = valueIds_[a.value];
  }
}

void ReviseMemo::buildIndex(std::size_t half) {
  Fill& fill = state_.half[half];
  Storage::Half& h = storage_->half[half];
  std::size_t size = 64;
  while (size < 2 * fill.entries) size *= 2;
  std::fill_n(h.slots, size, 0u);
  const std::size_t mask = size - 1;
  for (std::size_t i = 0; i < fill.entries; ++i) {
    const Storage::Entry& e = h.entries[i];
    std::uint64_t hash = mixWord(0, e.constraint);
    for (std::size_t k = 0; k < e.arity; ++k) {
      hash = mixBits(hash, h.values[h.ids[e.offset + k]]);
    }
    std::size_t slot = finishHash(hash) & mask;
    while (h.slots[slot] != 0) slot = (slot + 1) & mask;
    h.slots[slot] = static_cast<std::uint32_t>(i + 1);
  }
  fill.indexed = fill.entries;
  fill.slots = size;
}

std::optional<ReviseMemo::Outcome> ReviseMemo::find(
    std::size_t half, std::uint64_t hash, ConstraintId c,
    std::span<const interval::Interval> before,
    std::span<const PropertyId> args, std::span<interval::Interval> box) {
  const Fill& fill = state_.half[half];
  if (fill.entries == 0) return std::nullopt;
  if (fill.indexed != fill.entries) buildIndex(half);
  const Storage::Half& h = storage_->half[half];
  const std::size_t mask = fill.slots - 1;
  for (std::size_t slot = hash & mask; h.slots[slot] != 0;
       slot = (slot + 1) & mask) {
    const Storage::Entry& e = h.entries[h.slots[slot] - 1];
    if (e.constraint != c.value) continue;
    const std::uint32_t* in = h.ids + e.offset;
    bool same = true;
    for (std::size_t k = 0; same && k < before.size(); ++k) {
      same = h.values[in[k]] == bitsOf(before[k]);
    }
    if (!same) continue;
    ++state_.hits;
    const Outcome out{(e.flags & kFeasible) != 0, (e.flags & kNarrowed) != 0,
                      e.status};
    if (out.narrowed) {
      const std::uint32_t* after = in + e.arity;
      for (std::size_t k = 0; k < args.size(); ++k) {
        box[args[k].value] =
            std::bit_cast<interval::Interval>(h.values[after[k]]);
      }
    }
    return out;
  }
  return std::nullopt;
}

std::optional<ReviseMemo::Outcome> ReviseMemo::replay(
    ConstraintId c, std::span<const interval::Interval> before,
    std::span<const PropertyId> args, std::span<interval::Interval> box) {
  if (empty()) return std::nullopt;
  const std::uint64_t hash = keyHash(c, before);
  std::optional<Outcome> out =
      find(state_.current, hash, c, before, args, box);
  if (!out) out = find(state_.current ^ 1, hash, c, before, args, box);
  return out;
}

std::optional<ReviseMemo::Outcome> ReviseMemo::replayPrevious(
    ConstraintId c, std::span<const interval::Interval> before,
    std::span<const PropertyId> args, std::span<interval::Interval> box) {
  const std::size_t previous = state_.current ^ 1;
  if (state_.half[previous].entries == 0) return std::nullopt;
  return find(previous, keyHash(c, before), c, before, args, box);
}

PropertyId Network::addProperty(PropertySpec spec) {
  if (findProperty(spec.name)) {
    throw adpm::InvalidArgumentError("duplicate property name '" + spec.name +
                                     "'");
  }
  const PropertyId id{static_cast<std::uint32_t>(properties_.size())};
  Property p;
  p.id = id;
  p.name = std::move(spec.name);
  p.object = std::move(spec.object);
  p.initial = std::move(spec.initial);
  p.unit = std::move(spec.unit);
  p.abstractionLevels = std::move(spec.abstractionLevels);
  p.preference = spec.preference;
  properties_.push_back(std::move(p));
  byProperty_.emplace_back();
  ++generation_;
  return id;
}

ConstraintId Network::addConstraint(std::string name, expr::Expr lhs,
                                    Relation rel, expr::Expr rhs,
                                    bool active) {
  if (findConstraint(name)) {
    throw adpm::InvalidArgumentError("duplicate constraint name '" + name +
                                     "'");
  }
  const ConstraintId id{static_cast<std::uint32_t>(constraints_.size())};
  auto c = std::make_unique<Constraint>(id, std::move(name), std::move(lhs),
                                        rel, std::move(rhs));
  for (PropertyId arg : c->arguments()) {
    if (arg.value >= properties_.size()) {
      throw adpm::InvalidArgumentError(
          "constraint '" + c->name() + "' references unknown property id " +
          std::to_string(arg.value));
    }
    byProperty_[arg.value].push_back(id);
  }
  constraints_.push_back(std::move(c));
  active_.push_back(active);
  ++generation_;
  return id;
}

bool Network::isActive(ConstraintId c) const {
  if (c.value >= active_.size()) {
    throw adpm::InvalidArgumentError("unknown constraint id " +
                                     std::to_string(c.value));
  }
  return active_[c.value];
}

void Network::activate(ConstraintId c) {
  if (c.value >= active_.size()) {
    throw adpm::InvalidArgumentError("unknown constraint id " +
                                     std::to_string(c.value));
  }
  if (!active_[c.value]) ++generation_;
  active_[c.value] = true;
}

std::size_t Network::activeConstraintCount() const noexcept {
  std::size_t n = 0;
  for (const bool a : active_) n += a ? 1 : 0;
  return n;
}

expr::Expr Network::var(PropertyId p) const {
  return expr::Expr::variable(p.value, property(p).name);
}

const Property& Network::property(PropertyId p) const {
  if (p.value >= properties_.size()) {
    throw adpm::InvalidArgumentError("unknown property id " +
                                     std::to_string(p.value));
  }
  return properties_[p.value];
}

Property& Network::property(PropertyId p) {
  return const_cast<Property&>(std::as_const(*this).property(p));
}

const Constraint& Network::constraint(ConstraintId c) const {
  if (c.value >= constraints_.size()) {
    throw adpm::InvalidArgumentError("unknown constraint id " +
                                     std::to_string(c.value));
  }
  return *constraints_[c.value];
}

Constraint& Network::constraint(ConstraintId c) {
  return const_cast<Constraint&>(std::as_const(*this).constraint(c));
}

std::optional<PropertyId> Network::findProperty(
    std::string_view name) const noexcept {
  for (const auto& p : properties_) {
    if (p.name == name) return p.id;
  }
  return std::nullopt;
}

std::optional<ConstraintId> Network::findConstraint(
    std::string_view name) const noexcept {
  for (const auto& c : constraints_) {
    if (c->name() == name) return c->id();
  }
  return std::nullopt;
}

const std::vector<ConstraintId>& Network::constraintsOf(PropertyId p) const {
  if (p.value >= byProperty_.size()) {
    throw adpm::InvalidArgumentError("unknown property id " +
                                     std::to_string(p.value));
  }
  return byProperty_[p.value];
}

std::vector<PropertyId> Network::propertyIds() const {
  std::vector<PropertyId> ids;
  ids.reserve(properties_.size());
  for (const auto& p : properties_) ids.push_back(p.id);
  return ids;
}

std::vector<ConstraintId> Network::constraintIds() const {
  std::vector<ConstraintId> ids;
  ids.reserve(constraints_.size());
  for (const auto& c : constraints_) ids.push_back(c->id());
  return ids;
}

void Network::bind(PropertyId p, double v) {
  property(p).value = v;
  ++generation_;
}

void Network::unbind(PropertyId p) {
  property(p).value.reset();
  ++generation_;
}

std::vector<interval::Interval> Network::currentBox() const {
  std::vector<interval::Interval> box;
  box.reserve(properties_.size());
  for (const auto& p : properties_) box.push_back(p.currentHull());
  return box;
}

Status Network::evaluate(ConstraintId c) {
  if (!isActive(c)) {
    throw adpm::InvalidArgumentError(
        "evaluate: constraint '" + constraint(c).name() +
        "' has not been generated yet");
  }
  Constraint& con = constraint(c);
  const auto box = currentBox();
  const interval::Interval value = con.compiled().evaluate(box);
  ++evaluations_;
  return classify(value, tolerancedTarget(con.target(), value));
}

std::vector<Status> Network::evaluate(const std::vector<ConstraintId>& ids) {
  std::vector<Status> out;
  out.reserve(ids.size());
  for (ConstraintId id : ids) out.push_back(evaluate(id));
  return out;
}

}  // namespace adpm::constraint
