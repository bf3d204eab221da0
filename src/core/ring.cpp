#include "core/ring.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"
#include "core/local_control.hpp"

namespace sring {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline void fnv_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFFu;
    h *= kFnvPrime;
  }
}

constexpr std::size_t index(OperandBase b) noexcept {
  return static_cast<std::size_t>(b);
}

const RingGeometry& validated(const RingGeometry& g) {
  g.validate();
  return g;
}

}  // namespace

Ring::Ring(const RingGeometry& g)
    : geom_(validated(g)), bank_(geom_.dnode_count(), geom_.fb_depth) {
  dnodes_.resize(geom_.dnode_count());
  last_mode_.assign(geom_.dnode_count(), DnodeMode::kGlobal);
  ops_per_dnode_.assign(geom_.dnode_count(), 0);
  mac_ops_per_dnode_.assign(geom_.dnode_count(), 0);
  local_cycles_per_dnode_.assign(geom_.dnode_count(), 0);
  global_cycles_per_dnode_.assign(geom_.dnode_count(), 0);
  host_out_words_per_switch_.assign(geom_.switch_count(), 0);
  fb_reads_per_pipe_.assign(geom_.switch_count(), 0);
  fb_read_depth_counts_.assign(geom_.switch_count() * geom_.fb_depth, 0);
  fetched_.assign(geom_.dnode_count(), nullptr);
  is_local_.assign(geom_.dnode_count(), false);
  needs_.assign(geom_.dnode_count(), {});
  effects_.assign(geom_.dnode_count(), {});
  pre_outs_.assign(geom_.dnode_count(), 0);
  results_.assign(geom_.dnode_count(), 0);
  const char* no_plan = std::getenv("SRING_NO_PLAN_CACHE");
  plan_enabled_ = no_plan == nullptr || *no_plan == '\0';
}

std::size_t Ring::flat_index(std::size_t layer, std::size_t lane) const {
  check(layer < geom_.layers && lane < geom_.lanes,
        "Ring: dnode coordinates out of range");
  return layer * geom_.lanes + lane;
}

std::size_t Ring::upstream_layer(std::size_t layer) const noexcept {
  // No modulo: the interpreter calls this per routed Dnode per cycle.
  return (layer == 0 ? geom_.layers : layer) - 1;
}

Dnode& Ring::dnode(std::size_t layer, std::size_t lane) {
  // The caller may mutate output registers or local counters directly
  // (test harnesses do): the planned engine's mirrors go stale.
  pre_outs_valid_ = false;
  sched_synced_ = false;
  return dnodes_[flat_index(layer, lane)];
}

const Dnode& Ring::dnode(std::size_t layer, std::size_t lane) const {
  return dnodes_[flat_index(layer, lane)];
}

Dnode& Ring::dnode_flat(std::size_t index) {
  check(index < dnodes_.size(), "Ring: dnode index out of range");
  pre_outs_valid_ = false;
  sched_synced_ = false;
  return dnodes_[index];
}

const Dnode& Ring::dnode_flat(std::size_t index) const {
  check(index < dnodes_.size(), "Ring: dnode index out of range");
  return dnodes_[index];
}

void Ring::write_local(std::size_t dnode_index, std::size_t slot,
                       std::uint64_t value) {
  check(dnode_index < dnodes_.size(), "Ring: dnode index out of range");
  dnodes_[dnode_index].local().write(slot, value);
  ++local_generation_;
}

Word Ring::read_feedback(const FeedbackAddr& addr) const {
  addr.check_in_range(geom_.switch_count(), geom_.lanes, geom_.fb_depth);
  return bank_.read(upstream_layer(addr.pipe) * geom_.lanes + addr.lane,
                    addr.depth);
}

void Ring::note_fb_read(const FeedbackAddr& addr) {
  ++fb_reads_per_pipe_[addr.pipe];
  ++fb_read_depth_counts_[addr.pipe * geom_.fb_depth + addr.depth];
}

void Ring::settle_mode_cycles() const noexcept {
  if (pending_mode_cycles_ == 0) return;
  for (std::size_t i = 0; i < last_mode_.size(); ++i) {
    auto& counts = last_mode_[i] == DnodeMode::kLocal
                       ? local_cycles_per_dnode_
                       : global_cycles_per_dnode_;
    counts[i] += pending_mode_cycles_;
  }
  pending_mode_cycles_ = 0;
}

void Ring::set_plan_cache_enabled(bool enabled) noexcept {
  plan_enabled_ = enabled;
  if (!enabled) current_plan_ = nullptr;
}

void Ring::reset_arch_state() {
  for (auto& d : dnodes_) d.reset();
  bank_.reset();
  last_mode_.assign(geom_.dnode_count(), DnodeMode::kGlobal);
  ops_per_dnode_.assign(geom_.dnode_count(), 0);
  mac_ops_per_dnode_.assign(geom_.dnode_count(), 0);
  local_cycles_per_dnode_.assign(geom_.dnode_count(), 0);
  global_cycles_per_dnode_.assign(geom_.dnode_count(), 0);
  pending_mode_cycles_ = 0;
  host_out_words_per_switch_.assign(geom_.switch_count(), 0);
  fb_reads_per_pipe_.assign(geom_.switch_count(), 0);
  fb_read_depth_counts_.assign(geom_.switch_count() * geom_.fb_depth, 0);
  bus_drives_ = 0;
  bus_conflicts_ = 0;
  superstep_dispatches_ = 0;
  superstep_cycles_ = 0;
  superstep_exits_ = {};
  current_plan_ = nullptr;
  mode_synced_ = false;
  pre_outs_valid_ = false;
  sched_synced_ = false;
  local_generation_ = 0;
  local_hash_gen_ = ~std::uint64_t{0};
  unfuse();
  plan_compiles_ = 0;
  plan_hits_ = 0;
  plan_invalidations_ = 0;
  plan_content_hits_ = 0;
  plan_evictions_ = 0;
  plan_seq_fusions_ = 0;
  plan_seq_hits_ = 0;
}

void Ring::reset() {
  reset_arch_state();
  // Drop the whole plan cache so a reset System replays identically to
  // a fresh one, counters included.
  plan_cache_.clear();
  plan_use_clock_ = 0;
}

void Ring::reset_for_rerun() {
  reset_arch_state();
  // Keep compiled plans but drop their provenance hints: the rerun's
  // configuration is a fresh image (reset_live + reprogramming), so
  // the first re-attachment of every entry must re-verify the full
  // content before the O(1) hint is re-established.  A rerun with a
  // different program therefore misses cleanly.
  for (auto& e : plan_cache_) {
    e->src_uid = 0;
    e->src_page = -1;
  }
}

Ring::CycleResult Ring::step(const ConfigMemory& cfg, Word bus,
                             HostFifo& host_in,
                             std::vector<Word>& host_out) {
  check(cfg.geometry().layers == geom_.layers &&
            cfg.geometry().lanes == geom_.lanes,
        "Ring::step: configuration memory geometry mismatch");

  // An interpreted cycle commits modes itself: the planned engine must
  // re-sync them at its next advancing cycle, and the planned cycles
  // pending under the old modes are settled first.
  const auto interpret = [&] {
    settle_mode_cycles();
    mode_synced_ = false;
    return step_interpreted(cfg, bus, host_in, host_out);
  };
  if (!plan_enabled_) return interpret();

  // Planned cycles are one-cycle dispatches of the planned engine.
  const auto run_one_cycle = [&](CyclePlan& plan) {
    CycleResult r = exec_plan(plan, bus, host_in, host_out, 1,
                              std::numeric_limits<std::size_t>::max(), {});
    r.stalled = r.cycles == 0;
    return r;
  };

  const std::uint64_t uid = cfg.uid();
  const std::uint64_t gen = cfg.generation();
  if (current_plan_ != nullptr) {
    CyclePlan& plan = current_plan_->plan;
    if (plan.cfg_uid == uid && plan.cfg_generation == gen &&
        plan.local_generation == local_generation_) {
      ++plan_hits_;
      return run_one_cycle(plan);
    }
    current_plan_ = nullptr;
    ++plan_invalidations_;
  }

  // The configuration changed.  Fused sequence first: if the rotation
  // was recognized, the predicted successor re-attaches after an O(1)
  // provenance check — no hashing, no cache scan.
  if (seq_fused_) {
    PlanCacheEntry* const pred = seq_[seq_pos_];
    if (hint_matches(*pred, cfg)) {
      seq_pos_ = (seq_pos_ + 1) % seq_.size();
      ++plan_seq_hits_;
      ++plan_content_hits_;
      ++plan_hits_;
      attach_plan(pred, cfg);
      return run_one_cycle(pred->plan);
    }
  }

  // Content-keyed lookup: hash the live configuration and scan the
  // cache (hint or full-content verified).
  const std::uint64_t key = live_key_hash(cfg);
  PlanCacheEntry* const e = find_entry(cfg, key);
  if (seq_fused_) {
    // The hint couldn't prove the prediction (e.g. word-written
    // content with no page provenance).  Reconcile with the lookup:
    // the predicted entry keeps the fusion, anything else breaks it.
    if (e != nullptr && e == seq_[seq_pos_]) {
      seq_pos_ = (seq_pos_ + 1) % seq_.size();
    } else {
      unfuse();
    }
  }
  if (e == nullptr) {
    insert_entry(cfg, key)->sightings = 1;
    return interpret();
  }
  if (e->compiled) {
    ++plan_content_hits_;
    ++plan_hits_;
    attach_plan(e, cfg);
    return run_one_cycle(e->plan);
  }
  if (++e->sightings >= 2) {
    // Second sighting of this content: compile.  compile throws
    // exactly where the interpreter would reject the configuration at
    // execution time.
    compile_cycle_plan(geom_, cfg, dnodes_, e->plan);
    e->plan.valid = true;
    e->compiled = true;
    ++plan_compiles_;
    attach_plan(e, cfg);
    return run_one_cycle(e->plan);
  }
  // First sighting: interpret, compile if the content ever recurs.
  return interpret();
}

// --- plan cache internals ----------------------------------------------

std::uint64_t Ring::local_content_hash() {
  if (local_hash_gen_ == local_generation_) return local_hash_;
  std::uint64_t h = kFnvOffset;
  for (const Dnode& d : dnodes_) {
    const LocalControl& lc = d.local();
    fnv_mix(h, lc.limit());
    for (const std::uint64_t w : lc.raw_slots()) fnv_mix(h, w);
  }
  local_hash_ = h;
  local_hash_gen_ = local_generation_;
  return h;
}

std::uint64_t Ring::live_key_hash(const ConfigMemory& cfg) {
  std::uint64_t h = cfg.content_hash();
  h ^= local_content_hash() + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

void Ring::build_content(const ConfigMemory& cfg,
                         std::vector<std::uint64_t>& out) const {
  const auto& iw = cfg.live_instr_words();
  const auto& mb = cfg.live_mode_bytes();
  const auto& rw = cfg.live_route_words();
  out.reserve(iw.size() + mb.size() + rw.size() +
              dnodes_.size() * (1 + kLocalProgramSlots));
  out.insert(out.end(), iw.begin(), iw.end());
  for (const std::uint8_t b : mb) out.push_back(b);
  out.insert(out.end(), rw.begin(), rw.end());
  for (const Dnode& d : dnodes_) {
    const LocalControl& lc = d.local();
    out.push_back(lc.limit());
    const auto& slots = lc.raw_slots();
    out.insert(out.end(), slots.begin(), slots.end());
  }
}

bool Ring::content_matches(const ConfigMemory& cfg,
                           const std::vector<std::uint64_t>& content) const {
  const auto& iw = cfg.live_instr_words();
  const auto& mb = cfg.live_mode_bytes();
  const auto& rw = cfg.live_route_words();
  const std::size_t total = iw.size() + mb.size() + rw.size() +
                            dnodes_.size() * (1 + kLocalProgramSlots);
  if (content.size() != total) return false;
  std::size_t k = 0;
  for (const std::uint64_t w : iw) {
    if (content[k++] != w) return false;
  }
  for (const std::uint8_t b : mb) {
    if (content[k++] != b) return false;
  }
  for (const std::uint64_t w : rw) {
    if (content[k++] != w) return false;
  }
  for (const Dnode& d : dnodes_) {
    const LocalControl& lc = d.local();
    if (content[k++] != lc.limit()) return false;
    for (const std::uint64_t w : lc.raw_slots()) {
      if (content[k++] != w) return false;
    }
  }
  return true;
}

Ring::PlanCacheEntry* Ring::find_entry(const ConfigMemory& cfg,
                                       std::uint64_t key) {
  for (auto& p : plan_cache_) {
    if (p->key_hash != key) continue;
    if (hint_matches(*p, cfg) || content_matches(cfg, p->content)) {
      // Content verified: (re-)establish the O(1) provenance hint for
      // the next sighting and protect the entry from eviction.
      p->src_uid = cfg.uid();
      p->src_page = cfg.live_page();
      p->src_local_gen = local_generation_;
      p->last_use = ++plan_use_clock_;
      return p.get();
    }
  }
  return nullptr;
}

Ring::PlanCacheEntry* Ring::insert_entry(const ConfigMemory& cfg,
                                         std::uint64_t key) {
  PlanCacheEntry* e = nullptr;
  if (plan_cache_.size() < kPlanCacheCapacity) {
    plan_cache_.push_back(std::make_unique<PlanCacheEntry>());
    e = plan_cache_.back().get();
  } else {
    // Evict the least-recently-attached entry and reuse its storage.
    // The sequence history may reference the victim — drop it.
    e = plan_cache_.front().get();
    for (auto& p : plan_cache_) {
      if (p->last_use < e->last_use) e = p.get();
    }
    ++plan_evictions_;
    unfuse();
    e->compiled = false;
    e->plan.valid = false;
    e->content.clear();
  }
  e->key_hash = key;
  build_content(cfg, e->content);
  e->src_uid = cfg.uid();
  e->src_page = cfg.live_page();
  e->src_local_gen = local_generation_;
  e->sightings = 0;
  e->last_use = ++plan_use_clock_;
  return e;
}

void Ring::attach_plan(PlanCacheEntry* e, const ConfigMemory& cfg) {
  CyclePlan& plan = e->plan;
  plan.cfg_uid = cfg.uid();
  plan.cfg_generation = cfg.generation();
  plan.local_generation = local_generation_;
  e->src_uid = cfg.uid();
  e->src_page = cfg.live_page();
  e->src_local_gen = local_generation_;
  e->last_use = ++plan_use_clock_;
  mode_synced_ = mode_synced_ && plan.local_dnodes == synced_locals_;
  sched_synced_ = false;
  current_plan_ = e;
  note_attach(e);
}

void Ring::note_attach(PlanCacheEntry* e) {
  if (seq_fused_) return;  // prediction owns the cursor while fused
  plan_history_.push_back(e);
  if (plan_history_.size() > 3 * kMaxSuperstepPeriod) {
    plan_history_.erase(
        plan_history_.begin(),
        plan_history_.end() -
            static_cast<std::ptrdiff_t>(2 * kMaxSuperstepPeriod));
  }
  // Periodic rotation: the last p attachments repeat the p before
  // them.  The inner loop's first compare (current entry vs the one a
  // period ago) prunes almost every candidate period immediately.
  const std::size_t h = plan_history_.size();
  const std::size_t max_p = std::min(kMaxSuperstepPeriod, h / 2);
  for (std::size_t p = 1; p <= max_p; ++p) {
    bool match = true;
    for (std::size_t k = 0; k < p; ++k) {
      if (plan_history_[h - 1 - k] != plan_history_[h - 1 - p - k]) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    seq_.assign(plan_history_.end() - static_cast<std::ptrdiff_t>(p),
                plan_history_.end());
    seq_pos_ = 0;
    seq_fused_ = true;
    ++plan_seq_fusions_;
    plan_history_.clear();
    return;
  }
}

void Ring::unfuse() noexcept {
  seq_.clear();
  seq_pos_ = 0;
  seq_fused_ = false;
  plan_history_.clear();
}

// --- cycle execution ----------------------------------------------------

void Ring::commit_edge() {
  const std::size_t n = geom_.dnode_count();
  // Capture pre-edge output vectors: these are what the feedback
  // pipelines and host-out taps latch at this clock edge.
  for (std::size_t i = 0; i < n; ++i) {
    pre_outs_[i] = dnodes_[i].out();
  }
  for (std::size_t i = 0; i < n; ++i) {
    dnodes_[i].commit(is_local_[i]);
  }
  bank_.push_from(pre_outs_.data());
  pre_outs_valid_ = false;  // pre_outs_ now holds pre-edge values
}

void Ring::drain_effects(CycleResult& result, std::vector<Word>& host_out) {
  const std::size_t n = geom_.dnode_count();
  for (std::size_t i = 0; i < n; ++i) {
    if (effects_[i].executed && effects_[i].host_en) {
      host_out.push_back(effects_[i].result);
      ++result.host_words_out;
    }
    if (effects_[i].executed && effects_[i].bus_en) {
      ++bus_drives_;
      if (result.bus_drive.has_value()) ++bus_conflicts_;
      result.bus_drive = effects_[i].result;
    }
  }
}

Ring::CycleResult Ring::step_interpreted(const ConfigMemory& cfg, Word bus,
                                         HostFifo& host_in,
                                         std::vector<Word>& host_out) {
  const std::size_t n = geom_.dnode_count();

  // Phase 1: fetch.  Mode transitions are observed but NOT committed —
  // a Dnode entering local mode this cycle fetches slot 0 directly, and
  // its counter is reset only once the cycle is known to advance, so a
  // stalled transition cycle leaves every local program untouched.
  for (std::size_t i = 0; i < n; ++i) {
    is_local_[i] = cfg.dnode_mode(i) == DnodeMode::kLocal;
    if (is_local_[i]) {
      fetched_[i] = last_mode_[i] == DnodeMode::kGlobal
                        ? &dnodes_[i].local().instr_at(0)
                        : &dnodes_[i].local().current();
    } else {
      fetched_[i] = &cfg.dnode_instr(i);
    }
  }

  // Phase 2: count the host pops this cycle needs.
  std::size_t pops_needed = 0;
  for (std::size_t layer = 0; layer < geom_.layers; ++layer) {
    for (std::size_t lane = 0; lane < geom_.lanes; ++lane) {
      const std::size_t i = layer * geom_.lanes + lane;
      needs_[i] = PortNeed{};
      const DnodeInstr& instr = *fetched_[i];
      if (instr.op == DnodeOp::kNop) continue;
      const SwitchRoute& route = cfg.switch_route(layer, lane);
      if (route.in1.kind == RouteKind::kHost &&
          instr_reads(instr, DnodeSrc::kIn1)) {
        needs_[i].in1_host = true;
        ++pops_needed;
      }
      if (route.in2.kind == RouteKind::kHost &&
          instr_reads(instr, DnodeSrc::kIn2)) {
        needs_[i].in2_host = true;
        ++pops_needed;
      }
      if (instr_reads(instr, DnodeSrc::kHost)) {
        needs_[i].direct_host = true;
        ++pops_needed;
      }
    }
  }

  CycleResult result;
  if (host_in.size() < pops_needed) {
    result.stalled = true;
    return result;  // systolic back-pressure: nothing advances
  }

  // The cycle advances: commit mode transitions (a Dnode entering
  // local mode restarts its program at slot 0) and record the mode
  // every Dnode ran under.
  for (std::size_t i = 0; i < n; ++i) {
    if (is_local_[i]) {
      if (last_mode_[i] == DnodeMode::kGlobal) {
        dnodes_[i].local().reset_counter();
      }
      last_mode_[i] = DnodeMode::kLocal;
      ++local_cycles_per_dnode_[i];
    } else {
      last_mode_[i] = DnodeMode::kGlobal;
      ++global_cycles_per_dnode_[i];
    }
  }

  // Phase 3+4: route and execute.  Routing reads only pre-edge state
  // (output registers, pipelines, bus), so evaluation order across
  // Dnodes does not matter except for the documented host pop order.
  for (std::size_t layer = 0; layer < geom_.layers; ++layer) {
    const std::size_t up = upstream_layer(layer);
    for (std::size_t lane = 0; lane < geom_.lanes; ++lane) {
      const std::size_t i = layer * geom_.lanes + lane;
      effects_[i] = Dnode::Effects{};
      const DnodeInstr& instr = *fetched_[i];
      if (instr.op == DnodeOp::kNop) continue;
      const SwitchRoute& route = cfg.switch_route(layer, lane);

      Dnode::Inputs in;
      const auto resolve_port = [&](const PortRoute& p,
                                    bool pops) -> Word {
        switch (p.kind) {
          case RouteKind::kZero:
            return 0;
          case RouteKind::kPrev:
            check(p.lane < geom_.lanes, "Ring: route lane out of range");
            return dnodes_[flat_index(up, p.lane)].out();
          case RouteKind::kHost: {
            if (!pops) return 0;
            const Word w = host_in.front();
            host_in.pop_front();
            ++result.host_words_in;
            return w;
          }
          case RouteKind::kFeedback:
            return read_feedback(p.fb);
          case RouteKind::kBus:
            return bus;
          case RouteKind::kKindCount:
            break;
        }
        throw SimError("Ring: bad route kind");
      };

      in.in1 = resolve_port(route.in1, needs_[i].in1_host);
      in.in2 = resolve_port(route.in2, needs_[i].in2_host);
      in.fifo1 = read_feedback(route.fifo1);
      in.fifo2 = read_feedback(route.fifo2);
      in.bus = bus;
      // Feedback-occupancy accounting: only reads the instruction
      // actually consumes (the ports above are sampled regardless).
      if (route.in1.kind == RouteKind::kFeedback &&
          instr_reads(instr, DnodeSrc::kIn1)) {
        note_fb_read(route.in1.fb);
      }
      if (route.in2.kind == RouteKind::kFeedback &&
          instr_reads(instr, DnodeSrc::kIn2)) {
        note_fb_read(route.in2.fb);
      }
      if (instr_reads(instr, DnodeSrc::kFifo1)) note_fb_read(route.fifo1);
      if (instr_reads(instr, DnodeSrc::kFifo2)) note_fb_read(route.fifo2);
      if (needs_[i].direct_host) {
        in.host = host_in.front();
        host_in.pop_front();
        ++result.host_words_in;
      }

      effects_[i] = dnodes_[i].execute(instr, in);
      if (effects_[i].executed) {
        ++result.ops;
        const bool is_mac =
            instr.op == DnodeOp::kMac || instr.op == DnodeOp::kMsu;
        result.arith_ops += is_mac ? 2 : 1;
        ++ops_per_dnode_[i];
        if (is_mac) ++mac_ops_per_dnode_[i];
      }
    }
  }

  // Phase 5: commit, then host output: switch taps first (switch
  // order), then Dnode hostEn results (dnode order).  Bus drive:
  // highest dnode index wins.
  commit_edge();
  for (std::size_t s = 0; s < geom_.switch_count(); ++s) {
    for (std::size_t lane = 0; lane < geom_.lanes; ++lane) {
      const SwitchRoute& route = cfg.switch_route(s, lane);
      if (route.host_out_en) {
        check(route.host_out_lane < geom_.lanes,
              "Ring: host-out lane out of range");
        host_out.push_back(
            pre_outs_[upstream_layer(s) * geom_.lanes + route.host_out_lane]);
        ++result.host_words_out;
        ++host_out_words_per_switch_[s];
      }
    }
  }
  drain_effects(result, host_out);
  result.cycles = 1;
  return result;
}

Ring::CycleResult Ring::run_planned(const ConfigMemory& cfg, Word bus,
                                    HostFifo& host_in,
                                    std::vector<Word>& host_out,
                                    std::uint64_t max_cycles,
                                    std::size_t host_out_stop,
                                    const HostDepthProbe& probe) {
  if (max_cycles == 0 || !plan_enabled_ || current_plan_ == nullptr) {
    return {};
  }
  CyclePlan& plan = current_plan_->plan;
  if (plan.cfg_uid != cfg.uid() || plan.cfg_generation != cfg.generation() ||
      plan.local_generation != local_generation_) {
    return {};  // stale plan: step() owns invalidation
  }
  if (plan.period == 0) return {};  // not unrolled: step() runs it
  const CycleResult res =
      exec_plan(plan, bus, host_in, host_out, max_cycles, host_out_stop, probe);
  if (res.cycles > 0) {
    ++superstep_dispatches_;
    superstep_cycles_ += res.cycles;
    plan_hits_ += res.cycles;
    // The engine's break condition, re-tested in its order on the
    // dispatch's result; none of the first three means the next cycle
    // would have stalled.
    SuperstepExit why = SuperstepExit::kHostStall;
    if (res.bus_drive.has_value()) {
      why = SuperstepExit::kBusDrive;
    } else if (res.cycles >= max_cycles) {
      why = SuperstepExit::kBudget;
    } else if (res.out_size_at_last_top >= host_out_stop) {
      why = SuperstepExit::kOutputStop;
    }
    ++superstep_exits_[static_cast<std::size_t>(why)];
  }
  return res;
}

void Ring::sync_schedule(CyclePlan& plan) {
  phase_ = 0;
  // The slot each local Dnode fetches next: 0 for one whose local-mode
  // entry has not committed yet — which is also where its counter
  // lands at the mode sync, so the schedule holds across that sync.
  const auto next_slot = [&](std::size_t i) -> std::uint8_t {
    return last_mode_[i] == DnodeMode::kGlobal ? std::uint8_t{0}
                                               : dnodes_[i].local().counter();
  };
  if (plan.sched_valid) {
    std::size_t k = 0;
    while (k < plan.local_dnodes.size() &&
           plan.sched_origin[k] == next_slot(plan.local_dnodes[k])) {
      ++k;
    }
    if (k == plan.local_dnodes.size()) return;  // counters match
  }
  plan.sched_origin.clear();
  for (const std::uint16_t i : plan.local_dnodes) {
    plan.sched_origin.push_back(next_slot(i));
  }

  // Unroll the schedule over the local-program period and lower every
  // executing slot into an operand record.  Per phase: the non-NOP
  // slots in flat Dnode order, their host operands addressed by pop
  // ordinal within the cycle (Dnode ascending, then in1, in2, direct —
  // the documented pop order), the cycle's host-pop count, and the
  // phase's statistics.  Phase p serves the cycle p cycles after the
  // origin, so local-slot bookkeeping vanishes from the engine loop.
  const std::size_t phases = plan.period == 0 ? 1 : plan.period;
  const std::size_t n = dnodes_.size();
  const auto size32 = [](const auto& v) {
    return static_cast<std::uint32_t>(v.size());
  };
  plan.sched_exec.clear();
  plan.sched_begin.assign(phases + 1, 0);
  plan.sched_pops.assign(phases, 0);
  plan.sched_arith.assign(phases, 0);
  plan.sched_out.clear();
  plan.sched_out_begin.assign(phases + 1, 0);
  plan.sched_fb.clear();
  plan.sched_fb_begin.assign(phases + 1, 0);
  for (std::size_t p = 0; p < phases; ++p) {
    plan.sched_begin[p] = size32(plan.sched_exec);
    plan.sched_out_begin[p] = size32(plan.sched_out);
    plan.sched_fb_begin[p] = size32(plan.sched_fb);
    std::uint32_t pops = 0;
    std::uint32_t arith = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const PlannedDnode& pd = plan.dnodes[i];
      const PlannedSlot& slot =
          pd.is_local ? pd.local[(next_slot(i) + p) % pd.local_len]
                      : pd.global;
      if (slot.nop) continue;
      PlannedExec x;
      x.operand = slot.operand;
      for (Operand& o : x.operand) {
        if (o.base == OperandBase::kHost) {
          o.off = static_cast<std::uint16_t>(o.off + pops);
        }
      }
      x.op = slot.instr.op;
      x.dst = slot.instr.dst;
      x.out_en = slot.instr.out_en;
      x.bus_en = slot.instr.bus_en;
      x.host_en = slot.instr.host_en;
      x.is_mac = slot.is_mac;
      x.dnode = static_cast<std::uint16_t>(i);
      if (x.host_en || x.bus_en) {
        plan.sched_out.push_back(size32(plan.sched_exec));
      }
      plan.sched_exec.push_back(x);
      pops += slot.pops;
      arith += slot.is_mac ? 2u : 1u;
      for (std::size_t k = 0; k < slot.fb_reads; ++k) {
        const FeedbackAddr& a = slot.fb_read[k];
        plan.sched_fb.push_back(
            {a.pipe, static_cast<std::uint16_t>(a.pipe * geom_.fb_depth +
                                                a.depth)});
      }
    }
    plan.sched_pops[p] = pops;
    plan.sched_arith[p] = arith;
  }
  plan.sched_begin[phases] = size32(plan.sched_exec);
  plan.sched_out_begin[phases] = size32(plan.sched_out);
  plan.sched_fb_begin[phases] = size32(plan.sched_fb);
  plan.sched_valid = true;
}

void Ring::settle_phase_stats(const CyclePlan& plan, std::size_t first,
                              std::uint64_t cycles, std::uint64_t& ops,
                              std::uint64_t& arith) {
  // Phase first+k ran `full` times, plus once more if k < rem.  A
  // dispatch shorter than a period divides nothing and touches only the
  // phases it ran.
  const std::size_t phases = plan.sched_pops.size();
  const std::uint64_t full = cycles < phases ? 0 : cycles / phases;
  const std::uint64_t rem = cycles < phases ? cycles : cycles % phases;
  const std::size_t touched = full > 0 ? phases : static_cast<std::size_t>(rem);
  std::size_t p = first;
  for (std::size_t k = 0; k < touched; ++k) {
    const std::uint64_t m = full + (k < rem ? 1u : 0u);
    const PlannedExec* it = plan.sched_exec.data() + plan.sched_begin[p];
    const PlannedExec* const end =
        plan.sched_exec.data() + plan.sched_begin[p + 1];
    ops += m * static_cast<std::uint64_t>(end - it);
    arith += m * plan.sched_arith[p];
    for (; it != end; ++it) {
      ops_per_dnode_[it->dnode] += m;
      if (it->is_mac) mac_ops_per_dnode_[it->dnode] += m;
    }
    for (std::uint32_t f = plan.sched_fb_begin[p];
         f != plan.sched_fb_begin[p + 1]; ++f) {
      fb_reads_per_pipe_[plan.sched_fb[f].pipe] += m;
      fb_read_depth_counts_[plan.sched_fb[f].cell] += m;
    }
    if (++p == phases) p = 0;
  }
}

Ring::CycleResult Ring::exec_plan(CyclePlan& plan, Word bus, HostFifo& host_in,
                                  std::vector<Word>& host_out,
                                  std::uint64_t max_cycles,
                                  std::size_t host_out_stop,
                                  const HostDepthProbe& probe) {
  // The schedule is checked once per attachment; afterwards the local
  // counters advance in lockstep with phase_.  A plan over the period
  // cap has one phase, rebuilt from the live counters every cycle.
  if (!sched_synced_ || plan.period == 0) {
    sync_schedule(plan);
    sched_synced_ = true;
  }
  const std::size_t first = phase_;
  std::size_t phase = first;

  // First-cycle stall check before any state is touched: a stalled
  // cycle advances nothing (step() reports it, a superstep hands back).
  if (host_in.size() < plan.sched_pops[phase]) return {};

  if (!mode_synced_) {
    // First advancing cycle under a new mode vector: settle the cycles
    // pending under the old one, then commit mode transitions exactly
    // as the interpreter would.  Modes cannot change while the plan
    // stays attached, and a re-attachment with the same local-Dnode set
    // keeps them (see attach_plan), so this runs once per change of
    // mode vector.
    settle_mode_cycles();
    for (const std::uint16_t i : plan.local_dnodes) {
      if (last_mode_[i] == DnodeMode::kGlobal) {
        dnodes_[i].local().reset_counter();
      }
      last_mode_[i] = DnodeMode::kLocal;
    }
    for (const std::uint16_t i : plan.global_dnodes) {
      last_mode_[i] = DnodeMode::kGlobal;
    }
    synced_locals_ = plan.local_dnodes;
    mode_synced_ = true;
  }

  // Standing invariant between planned cycles: pre_outs_[i] mirrors
  // every output register at the top of the cycle, so each edge below
  // refreshes only the Dnodes that executed.  Interpreted cycles or
  // outside writes break the invariant and it is rebuilt here once.
  const std::size_t n = dnodes_.size();
  if (!pre_outs_valid_) {
    for (std::size_t i = 0; i < n; ++i) pre_outs_[i] = dnodes_[i].out();
    pre_outs_valid_ = true;
  }

  const std::size_t phases = plan.sched_pops.size();
  // Tallies live in locals, not in the returned result: the stores
  // below could alias it and force a reload per store.
  std::uint64_t cycles = 0;
  std::uint64_t words_in = 0;
  std::uint64_t words_out = 0;
  std::size_t last_top = 0;
  std::optional<Word> drive;

  // Operand bases (see OperandBase): the feedback window and the host
  // window move every cycle, the register file with every slot.
  plan.consts[kConstBus] = bus;
  const Word* base[index(OperandBase::kCount)] = {};
  base[index(OperandBase::kConst)] = plan.consts.data();
  base[index(OperandBase::kPreOuts)] = pre_outs_.data();
  const auto load = [&base](const Operand& o) -> Word {
    return base[index(o.base)][o.off];
  };

  // The first cycle is admitted: it cannot stall (checked above) and
  // the caller checked its own stop condition.  Later cycles are
  // admitted at the bottom of the loop.
  for (;;) {
    const std::size_t out_at_top = host_out.size();
    const std::uint32_t need = plan.sched_pops[phase];

    // Sample the host-FIFO depth histogram at the same point
    // System::step does (pre-pop).
    if (probe.counts != nullptr) {
      const std::size_t d = host_in.size();
      ++probe.counts[probe.lut[d < probe.lut_max ? d : probe.lut_max]];
    }

    if (trace_views_) {
      // Event tracing consumes per-Dnode fetch/effect views for ALL
      // Dnodes.  Local counters advance only at the end of a dispatch,
      // so this cycle's slot is the counter plus the cycles run so far.
      for (std::size_t i = 0; i < n; ++i) {
        const PlannedDnode& pd = plan.dnodes[i];
        const PlannedSlot& ps =
            pd.is_local
                ? pd.local[(dnodes_[i].local().counter() + cycles) %
                           pd.local_len]
                : pd.global;
        fetched_[i] = &ps.instr;
        effects_[i] = Dnode::Effects{};
      }
    }

    // Execute the phase: per slot three indexed loads, the ALU and a
    // store to the scratch.  Host operands read this cycle's pops in
    // place; they are dropped in one skip after the phase.
    base[index(OperandBase::kFeedback)] = bank_.window();
    base[index(OperandBase::kHost)] = host_in.front_ptr();
    const std::uint32_t begin = plan.sched_begin[phase];
    const PlannedExec* const e = plan.sched_exec.data() + begin;
    const PlannedExec* const e_end =
        plan.sched_exec.data() + plan.sched_begin[phase + 1];
    Word* const res = results_.data();
    for (const PlannedExec* it = e; it != e_end; ++it) {
      base[index(OperandBase::kRegs)] =
          dnodes_[it->dnode].regs().values().data();
      const Word r = alu_execute(it->op, load(it->operand[0]),
                                 load(it->operand[1]), load(it->operand[2]));
      res[it - e] = r;
      if (trace_views_) {
        effects_[it->dnode] = {.executed = true,
                               .result = r,
                               .out_en = it->out_en,
                               .bus_en = it->bus_en,
                               .host_en = it->host_en};
      }
    }
    host_in.skip(need);
    words_in += need;

    // Clock edge.  pre_outs_ holds the pre-edge output vector (the
    // invariant), so the feedback bank and the taps latch from it
    // directly; then each executed Dnode latches its result straight
    // from the scratch — equivalent to the interpreter's commit_edge(),
    // since a Dnode that did not execute commits to its own current
    // state.  Local counters are fixed up in one advance_by() below.
    bank_.push_from(pre_outs_.data());
    // Host output: switch taps first (switch order), then Dnode hostEn
    // results (Dnode order).  Bus drive: highest Dnode index wins.
    for (const HostTapPlan& tap : plan.host_taps) {
      host_out.push_back(pre_outs_[tap.src]);  // per-switch count: below
    }
    words_out += plan.host_taps.size();
    for (const PlannedExec* it = e; it != e_end; ++it) {
      const Word r = res[it - e];
      dnodes_[it->dnode].latch(it->dst, it->out_en, r);
      if (it->out_en) pre_outs_[it->dnode] = r;  // the invariant
    }
    const std::uint32_t* o =
        plan.sched_out.data() + plan.sched_out_begin[phase];
    const std::uint32_t* const o_end =
        plan.sched_out.data() + plan.sched_out_begin[phase + 1];
    for (; o != o_end; ++o) {
      const PlannedExec& x = plan.sched_exec[*o];
      const Word r = res[*o - begin];
      if (x.host_en) {
        host_out.push_back(r);
        ++words_out;
      }
      if (x.bus_en) {
        ++bus_drives_;
        if (drive.has_value()) ++bus_conflicts_;
        drive = r;
      }
    }

    ++cycles;
    last_top = out_at_top;
    if (++phase == phases) phase = 0;
    // Hand back before the next cycle when a Dnode drove the bus (the
    // value must be visible next cycle), the budget is spent, the
    // output stop is reached, or the next cycle would stall (step()
    // replays the stall cycle-accurately).  The output stop carries
    // the per-cycle host-visibility lag: the System's
    // run_until_outputs loop admits cycle c against a host mirror one
    // tick stale — host_out's size at the top of cycle c-1.
    if (drive.has_value() || cycles >= max_cycles ||
        last_top >= host_out_stop || host_in.size() < plan.sched_pops[phase]) {
      break;
    }
  }
  phase_ = phase;

  // Per-dispatch statistics: the phase totals of the cycles run, the
  // tap counts and mode cycles (the same for every cycle), and the
  // local counters.
  std::uint64_t ops = 0;
  std::uint64_t arith = 0;
  settle_phase_stats(plan, first, cycles, ops, arith);
  for (const HostTapPlan& tap : plan.host_taps) {
    host_out_words_per_switch_[tap.sw] += cycles;
  }
  for (const std::uint16_t i : plan.local_dnodes) {
    dnodes_[i].local().advance_by(cycles);
  }
  pending_mode_cycles_ += cycles;
  return {.cycles = cycles,
          .ops = ops,
          .arith_ops = arith,
          .host_words_in = words_in,
          .host_words_out = words_out,
          .out_size_at_last_top = last_top,
          .bus_drive = drive};
}
}  // namespace sring
