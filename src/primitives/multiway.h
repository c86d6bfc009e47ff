// Forecasting multiway merge: the merge pass of a Dementiev–Sanders /
// STXXL-style external mergesort, used as the paper's implicit baseline.
//
// Unlike the oblivious LMM passes, the order in which a k-way merge
// consumes blocks depends on the data, so parallel-disk utilization is a
// matter of *forecasting* (Knuth 5.4.9): the next block needed from disk is
// the one belonging to the run whose loaded tail has the smallest last
// key. With a lookahead pool and batched refills the expected utilization
// approaches D; with no lookahead every refill is a synchronous single-
// block I/O and utilization collapses to ~1. bench_e12_parallelism
// measures exactly this contrast, which is the paper's §1 motivation for
// oblivious algorithms.
//
// Refill rule. Every run may hold `1 + lookahead` blocks (its allowance);
// the rest of the merge's memory (M/B - D slots, after the D-block emit
// buffer) is a spare pool. While at most D/4 runs own the last D blocks
// consumed, each of them, once its queue is down to its allowance, refills
// in one chunk of consecutive blocks — distinct disks by the stripe
// layout, so up to D blocks per parallel read — sized to its allowance
// plus an equal share of the spare pool. Otherwise (and for every other
// run) the classic batch applies: one block per run below its allowance,
// in forecast order. Near-sorted inputs consume one or two runs at a time
// and so stream at full parallelism; random and adversarial inputs consume
// many runs at once and keep the classic schedule. The rule reads only the
// data and the queue state, never ticket completion, so sync and async
// runs have identical I/O schedules.
//
// Extent note: classic refills are data-dependent single blocks into
// data-dependent slab slots, so they rarely coalesce. Its *output* still
// benefits: the sink appends sequentially through StripedRun, whose
// extent-backed blocks flush as coalesced extent writes.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "internal/loser_tree.h"
#include "pdm/memory_budget.h"
#include "pdm/prefetch_buffer.h"
#include "primitives/stream.h"
#include "util/trace.h"

namespace pdm {

struct MergePassOptions {
  u64 mem_records = 0;    // memory cap for buffers
  usize lookahead = 1;    // prefetched blocks per run beyond the current one
                          // (0 = naive demand paging)
  usize refill_batch = 0;  // blocks per forecast batch or chunk; 0 = D
};

/// Merges `runs` (each sorted) into `sink`. One pass over the data; the
/// number of parallel reads it takes depends on forecasting quality.
template <Record R, class Cmp = std::less<R>>
void multiway_merge_pass(PdmContext& ctx,
                         std::span<const StripedRun<R>> runs, Sink<R>& sink,
                         const MergePassOptions& opt, Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const usize k = runs.size();
  const usize disks = ctx.D();
  PDM_CHECK(k > 0, "no runs to merge");
  trace::TraceSpan trace_span("pass", "merge_pass", "fan_in", k);
  const usize allowance = 1 + opt.lookahead;  // current block + lookahead
  const u64 mem_blocks = opt.mem_records / rpb;
  PDM_CHECK(static_cast<u64>(k * allowance + disks) <= mem_blocks,
            "merge buffers exceed memory (reduce fan-in or lookahead)");
  // Slab: every run's allowance plus, when forecasting, the rest of the
  // memory left after the D-block emit buffer as the spare pool.
  const usize slots = opt.lookahead == 0
                          ? k * allowance
                          : static_cast<usize>(mem_blocks) - disks;
  const usize spare = slots - k * allowance;
  const usize refill_batch =
      opt.refill_batch != 0 ? opt.refill_batch : disks;
  // Streaming engages while at most this many runs are being consumed.
  const usize max_streams = std::max<usize>(1, disks / 4);

  TrackedBuffer<R> slab(ctx.budget(), slots * rpb);
  PipelineDrainGuard drain_guard(ctx.aio());  // after the slab it guards
  std::vector<usize> free_slots(slots);
  for (usize i = 0; i < slots; ++i) free_slots[i] = i;

  struct Loaded {
    usize slot;
    usize valid;
    usize pos = 0;
    IoTicket ticket = 0;  // completion of the block's (async) fetch
  };
  struct RunState {
    std::deque<Loaded> queue;
    u64 next_block = 0;  // next block index to fetch
    usize recent = 0;    // blocks among the last `disks` consumed
  };
  std::vector<RunState> st(k);
  usize spare_used = 0;  // sum over runs of max(0, queue.size() - allowance)

  // The runs being consumed: owners of the last `disks` blocks the merge
  // used up. Only consumption order (i.e. the data) moves this window.
  std::deque<usize> window;
  usize consuming = 0;  // runs with recent > 0
  auto consumed_block = [&](usize r) {
    window.push_back(r);
    if (st[r].recent++ == 0) ++consuming;
    if (window.size() > disks) {
      if (--st[window.front()].recent == 0) --consuming;
      window.pop_front();
    }
  };

  auto ensure_loaded = [&](Loaded& l) {
    if (l.ticket != 0) {
      ctx.aio().wait(l.ticket);
      l.ticket = 0;
    }
  };
  auto live = [&](usize r) { return st[r].next_block < runs[r].num_blocks(); };
  auto room = [&](usize r) {  // unfetched part of run r's own allowance
    const usize q = st[r].queue.size();
    return q < allowance ? allowance - q : usize{0};
  };
  // Streaming: a consumed run whose queue is down to its allowance may
  // refill up to its allowance plus an equal share of the spare pool, in
  // one chunk of consecutive blocks — distinct disks by the stripe layout.
  auto chunk_size = [&](usize r) -> usize {
    if (spare == 0 || consuming == 0 || consuming > max_streams ||
        st[r].recent == 0 || st[r].queue.size() > allowance) {
      return 0;
    }
    const usize share = spare / consuming;
    const u64 left = runs[r].num_blocks() - st[r].next_block;
    return static_cast<usize>(std::min<u64>(
        {left, refill_batch, allowance + share - st[r].queue.size(),
         room(r) + (spare - spare_used)}));
  };

  // Forecast order: a starving run first, then by the last key of the
  // last loaded block — the run with the smallest tail needs its next
  // block first. Ties go to the lower run index.
  std::vector<usize> order;
  auto forecast = [&] {
    order.clear();
    for (usize r = 0; r < k; ++r) {
      if (!live(r)) continue;
      order.push_back(r);
      // The comparator reads the tail key, so that fetch must have landed.
      if (!st[r].queue.empty()) ensure_loaded(st[r].queue.back());
    }
    std::sort(order.begin(), order.end(), [&](usize a, usize b) {
      const auto& qa = st[a].queue;
      const auto& qb = st[b].queue;
      if (qa.empty() != qb.empty()) return qa.empty();
      if (qa.empty()) return a < b;
      const R& ta = slab[qa.back().slot * rpb + qa.back().valid - 1];
      const R& tb = slab[qb.back().slot * rpb + qb.back().valid - 1];
      if (cmp(ta, tb)) return true;
      if (cmp(tb, ta)) return false;
      return a < b;
    });
  };

  // One refill batch, in forecast order: each streaming run takes its
  // chunk; any other run below its allowance takes its next block, up to
  // `max_singles` such blocks (classic forecasting). Every input is data
  // or queue state, never ticket completion, so the schedule is the same
  // at any async depth.
  std::vector<ReadReq> reqs;
  std::vector<std::pair<usize, usize>> take;  // (run, blocks)
  auto refill = [&](usize max_singles) {
    forecast();
    reqs.clear();
    take.clear();
    usize singles = 0;
    for (usize r : order) {
      RunState& s = st[r];
      usize n = chunk_size(r);
      if (n == 0 && room(r) > 0 && singles < max_singles) {
        n = 1;
        ++singles;
      }
      if (n == 0) continue;
      for (usize j = 0; j < n; ++j) {
        PDM_ASSERT(!free_slots.empty(), "no free merge slots");
        const usize slot = free_slots.back();
        free_slots.pop_back();
        if (s.queue.size() >= allowance) ++spare_used;
        reqs.push_back(
            runs[r].read_req(s.next_block, slab.data() + slot * rpb));
        s.queue.push_back(
            Loaded{slot, runs[r].records_in_block(s.next_block)});
        ++s.next_block;
      }
      take.emplace_back(r, n);
    }
    if (reqs.empty()) return;
    // The batch is charged at submission; each block carries its ticket
    // and is waited for lazily on first access, so merging overlaps reads.
    const IoTicket t = ctx.aio().read_async(reqs);
    for (const auto& [r, n] : take) {
      auto& q = st[r].queue;
      for (usize j = q.size() - n; j < q.size(); ++j) q[j].ticket = t;
    }
  };

  // Initial load: one batch gives every non-empty run its first block
  // (nothing has been consumed yet, so nothing streams).
  refill(k);

  auto head = [&](usize r) -> const R& {
    Loaded& l = st[r].queue.front();
    ensure_loaded(l);
    return slab[l.slot * rpb + l.pos];
  };

  LoserTree<R, Cmp> tree(k, cmp);
  for (usize r = 0; r < k; ++r) {
    if (!st[r].queue.empty()) tree.set_initial(r, head(r));
  }
  tree.build();

  TrackedBuffer<R> emit(ctx.budget(), disks * rpb);
  usize emitted = 0;

  auto advance = [&](usize r) -> bool {  // true if run r still has a head
    RunState& s = st[r];
    Loaded& cur = s.queue.front();
    if (++cur.pos < cur.valid) return true;
    free_slots.push_back(cur.slot);
    s.queue.pop_front();
    if (s.queue.size() >= allowance) --spare_used;
    consumed_block(r);
    if (s.queue.empty()) {
      if (!live(r)) return false;
      // Forecast miss: the starving run leads the forecast order, so the
      // batch serves it first (head() then waits for it).
      refill(refill_batch);
    }
    return true;
  };

  // Checkpoint, once per block's worth of output: refill when a streaming
  // run is down to its allowance, or (classic) once min(k, refill_batch)
  // allowance slots are free.
  const usize classic_at = std::min(k, refill_batch);
  auto checkpoint = [&] {
    usize own_free = 0;
    bool stream = false;
    for (usize r = 0; r < k; ++r) {
      own_free += room(r);
      stream = stream || (live(r) && chunk_size(r) > 0);
    }
    if (stream || own_free >= classic_at) refill(refill_batch);
  };

  u64 since_refill = 0;
  while (!tree.empty()) {
    const usize r = tree.min_source();
    emit[emitted++] = tree.min_value();
    if (emitted == emit.size()) {
      ctx.check_cancelled();
      sink.push(std::span<const R>(emit.data(), emitted));
      emitted = 0;
    }
    if (advance(r)) {
      tree.replace_min(head(r));
    } else {
      tree.exhaust_min();
    }
    if (opt.lookahead > 0 && ++since_refill >= rpb) {
      since_refill = 0;
      checkpoint();
    }
  }
  if (emitted > 0) sink.push(std::span<const R>(emit.data(), emitted));
  sink.close();
}

}  // namespace pdm
