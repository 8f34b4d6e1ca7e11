#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "decks.hpp"
#include "measure.hpp"
#include "obs/trace.hpp"
#include "served.hpp"
#include "xs/library.hpp"

namespace perfbench {
namespace {

using unsnap::api::RunRecord;

/// No run measures longer than this, whatever --seconds asks.
constexpr double kHardCapSeconds = 150.0;
/// serve-mix keeps submitting whole rounds until at least this many are
/// done, so that ten or more latencies lie beyond its p99.
constexpr long kMinSubmissions = 1000;

void log(const std::string& line) {
  std::fprintf(stderr, "perfbench: %s\n", line.c_str());
}

/// The daemon's socket, relative to the working directory so that a deep
/// checkout path cannot overrun the Unix socket name limit.
std::string socket_path(const Options& o) {
  return std::filesystem::relative(o.work_dir + "/unsnapd.sock").string();
}

/// The repository's criticality library, absolute so that the daemon of
/// a served pass finds it too.
std::string library_path() {
  if (!std::filesystem::is_regular_file(kCriticalityLibrary))
    throw std::runtime_error(std::string("no ") + kCriticalityLibrary +
                             " below the working directory");
  return std::filesystem::absolute(kCriticalityLibrary).string();
}

DeckSpec workload_deck(const Options& o, const std::string& library) {
  if (o.workload == "fixed-source") return fixed_source(o.seed);
  if (o.workload == "preassembled-high-order") return high_order(o.seed);
  return criticality(o.seed, library);
}

DeckSpec with_threads(DeckSpec spec, int threads) {
  spec.threads = threads;
  return spec;
}

/// Balance of a solve, plus bitwise agreement with a reference solve of
/// the same deck (digest, sweep count and, for keff, the k history).
void check_solve(Result& r, const DeckSpec& spec, const RunRecord& record,
                 const RunRecord* reference, const std::string& where) {
  if (!record.balance || !record.flux || !record.iteration) {
    r.check("record lacks balance, flux or iteration block", where);
    return;
  }
  r.check(check_balance(*record.balance, spec.epsi), where);
  if (reference == nullptr) return;
  r.check(check_digest_equal(*reference->flux, *record.flux), where);
  if (reference->iteration->sweeps != record.iteration->sweeps)
    r.check("sweep count differs from the reference solve", where);
  if (reference->keff && record.keff)
    r.check(check_k_history_equal(reference->keff->k_history,
                                  record.keff->k_history),
            where);
}

// --- solve workloads, untraced -------------------------------------------

Result measure_solves(const Options& o, const DeckSpec& spec,
                      const std::string& library) {
  Result r;
  const std::string deck = render(spec);
  const std::string json = o.work_dir + "/record.json";
  std::vector<double> walls, latencies;
  std::optional<RunRecord> reference;
  double setup_s = 0.0, rss_mb = 0.0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t_end = t0;
  do {
    ++r.attempted;
    try {
      SolveOutcome s = solve_deck(deck, json);
      check_solve(r, spec, s.record, reference ? &*reference : nullptr,
                  "solve " + std::to_string(r.attempted));
      if (!reference) {
        // One cold set-up per process: later solves find warm caches,
        // faulted-in pages and a running OpenMP team.
        setup_s = s.setup_s;
        // Peak memory of one solve. Repeated solves in one process raise
        // VmHWM further on some runs and not on others (37 MB after one
        // fixed-source solve, 39 or 56 MB after eight).
        rss_mb = peak_rss_mb();
        reference = std::move(s.record);
      }
      walls.push_back(s.wall_s);
      latencies.push_back(s.latency_s);
    } catch (const std::exception& err) {
      ++r.failed;
      log("solve failed: " + std::string(err.what()));
    }
    t_end = Clock::now();
  } while (seconds_between(t0, t_end) < std::min(o.seconds, kHardCapSeconds));
  if (!reference) throw std::runtime_error("no solve succeeded");

  if (o.workload == "keff") {
    // The all-fuel, all-reflective twin must reproduce the closed form.
    const DeckSpec inf = criticality_infinite(library);
    const SolveOutcome s = solve_deck(render(inf), json);
    check_solve(r, inf, s.record, nullptr, "k_inf solve");
    const double k_inf =
        closed_form_k_inf(unsnap::xs::read_library_file(library), "fuel");
    r.check(s.record.keff ? check_k(s.record.keff->k, k_inf)
                          : "record lacks a keff block",
            "k_inf solve");
  }

  r.add("wall_s", median(walls), "s");
  r.add("setup_s", setup_s, "s");
  r.add("sweeps", reference->iteration->sweeps, "count");
  r.add("peak_rss_mb", rss_mb, "MB");
  r.add("served_runs_per_s",
        static_cast<double>(walls.size()) / seconds_between(t0, t_end),
        "runs/s");
  r.add("served_p50_s", median(latencies), "s");
  // A run holds far fewer than 40 solves, so no percentile has ten
  // samples beyond it: the tail is reported as the median alone.
  r.add("served_p99_s", median(latencies), "s");
  return r;
}

// --- traced runs: per-layer metrics ----------------------------------------

/// Several decks solved back to back as one operation (one deck for the
/// solve workloads, the repeat decks of serve-mix).
struct SetOutcome {
  double wall_s = 0.0;
  Phases phases;
  std::vector<RunRecord> records;
};

SetOutcome solve_set(Result& r, const std::vector<DeckSpec>& specs,
                     int threads, bool traced, const std::string& json) {
  unsnap::obs::Tracer& tracer = unsnap::obs::Tracer::instance();
  if (traced) tracer.enable();
  SetOutcome set;
  for (const DeckSpec& spec : specs) {
    ++r.attempted;
    SolveOutcome s = solve_deck(render(with_threads(spec, threads)), json);
    set.wall_s += s.wall_s;
    set.phases += s.phases;
    set.records.push_back(std::move(s.record));
  }
  if (traced) tracer.disable();
  return set;
}

Phases mean_phases(const std::vector<SetOutcome>& sets) {
  Phases sum;
  for (const SetOutcome& s : sets) sum += s.phases;
  const double n = static_cast<double>(sets.size());
  Phases m = sum;
  for (double* v : {&m.parse_s, &m.lower_s, &m.preassembly_s, &m.solve_s,
                    &m.sweep_s, &m.source_s, &m.apply_s, &m.record_s,
                    &m.sweep_p50_s, &m.preassembly_mb, &m.record_kb,
                    &m.visits})
    *v /= n;
  m.sweep_count = static_cast<long>(static_cast<double>(sum.sweep_count) / n);
  return m;
}

double mean_wall(const std::vector<SetOutcome>& sets) {
  double sum = 0.0;
  for (const SetOutcome& s : sets) sum += s.wall_s;
  return sum / static_cast<double>(sets.size());
}

/// The served pass of a traced run: `decks` through a fresh daemon, in
/// order, one submission at a time.
struct ServedPass {
  std::vector<Submission> subs;
  double status_polls = 0.0;
};

long status_requests(const unsnap::util::JsonValue& stats) {
  return stats.at("requests").get_int("status");
}

ServedPass serve_sequentially(const Options& o,
                              const std::vector<std::string>& decks) {
  Daemon daemon(PERFBENCH_UNSNAPD, socket_path(o),
                o.work_dir + "/unsnapd.log");
  daemon.wait_ready(60.0);
  ServedPass pass;
  const long polls0 = status_requests(daemon.stats());
  for (const std::string& deck : decks)
    pass.subs.push_back(submit(daemon.socket_path(), deck));
  pass.status_polls = static_cast<double>(
      status_requests(daemon.stats()) - polls0);
  daemon.stop();
  return pass;
}

void add_serve_layer_metrics(Result& r, const std::vector<Submission>& subs,
                             double status_polls) {
  std::vector<double> queued, run, gap;
  double hits = 0.0, first_reply_max = 0.0;
  for (const Submission& s : subs) {
    queued.push_back(s.queued_s);
    run.push_back(s.run_s);
    gap.push_back(s.latency_s - s.queued_s - s.run_s);
    hits += s.cache_hit ? 1.0 : 0.0;
    first_reply_max = std::max(first_reply_max, s.first_reply_s);
  }
  const double n = static_cast<double>(subs.size());
  r.add("serve.queue_wait_p50_s", median(queued), "s");
  r.add("serve.run_p50_s", median(run), "s");
  r.add("serve.await_gap_p50_s", median(gap), "s");
  r.add("serve.status_polls_per_run", status_polls / n, "count");
  r.add("serve.cache_hit_rate", hits / n, "ratio");
  r.add("serve.first_reply_wait_max_s", first_reply_max, "s");
}

/// Per-layer metrics shared by every traced run. `plain`/`traced` are
/// the same operation untraced and traced at the default thread count;
/// `ladder1`/`ladder2` at 1 and 2 threads; `krylov` is the traced
/// operation whose Krylov layer is reported (the workload's own when it
/// runs GMRES inners, otherwise its GMRES twin).
void add_core_layer_metrics(Result& r, const std::vector<SetOutcome>& plain,
                            const std::vector<SetOutcome>& traced,
                            const SetOutcome& ladder1,
                            const SetOutcome& ladder2,
                            const SetOutcome& krylov,
                            const SetOutcome& preassembly) {
  const Phases p = mean_phases(plain);
  const Phases t = mean_phases(traced);
  const double plain_wall = mean_wall(plain);
  const double traced_wall = mean_wall(traced);
  long outers = 0, sweeps = 0;
  for (const RunRecord& rec : traced.front().records) {
    outers += rec.keff ? rec.keff->outers : rec.iteration->outers;
    sweeps += rec.iteration->sweeps;
  }
  long krylov_iters = 0;
  for (const RunRecord& rec : krylov.records)
    krylov_iters += rec.iteration->krylov_iters;

  r.add("snap.parse_s", p.parse_s, "s");
  r.add("core.lower_s", t.lower_s, "s");
  r.add("core.preassembly_s", preassembly.phases.preassembly_s, "s");
  r.add("core.preassembly_mb", preassembly.phases.preassembly_mb, "MB");
  r.add("core.sweep_s", t.sweep_s, "s");
  r.add("core.sweep_count", static_cast<double>(t.sweep_count), "count");
  r.add("core.grind_ns", t.visits > 0.0 ? t.sweep_s / t.visits * 1e9 : 0.0,
        "ns");
  r.add("core.sweep_p50_ms", t.sweep_p50_s * 1e3, "ms");
  r.add("core.source_s", t.source_s, "s");
  r.add("core.speedup_2t", ladder1.wall_s / ladder2.wall_s, "ratio");
  r.add("core.speedup_nproc", ladder1.wall_s / plain_wall, "ratio");
  r.add("accel.krylov_iters", static_cast<double>(krylov_iters), "count");
  r.add("accel.apply_s", krylov.phases.apply_s, "s");
  r.add("accel.vector_s",
        krylov.phases.solve_s - krylov.phases.sweep_s -
            krylov.phases.source_s,
        "s");
  r.add("xs.outers", static_cast<double>(outers), "count");
  r.add("xs.sweeps_per_outer",
        outers > 0 ? static_cast<double>(sweeps) / outers : 0.0, "count");
  r.add("api.record_s", p.record_s, "s");
  r.add("api.record_kb", p.record_kb, "KB");
  r.add("api.unattributed_s",
        traced_wall - t.parse_s - t.lower_s - t.preassembly_s - t.solve_s -
            t.record_s,
        "s");
  r.add("obs.trace_overhead", traced_wall / plain_wall, "ratio");
}

/// Ladder solves must agree bitwise with the default-thread solve.
void check_ladder(Result& r, const std::vector<DeckSpec>& specs,
                  const SetOutcome& reference, const SetOutcome& other,
                  const std::string& where) {
  for (std::size_t i = 0; i < specs.size(); ++i)
    check_solve(r, specs[i], other.records[i], &reference.records[i], where);
}

/// Cross-path agreement of a twin solve with the workload's own.
void check_twin(Result& r, const RunRecord& own, const RunRecord& twin,
                double tol, const std::string& where) {
  r.check(check_digest_close(*own.flux, *twin.flux, tol), where);
  if (own.keff && twin.keff &&
      !(std::abs(own.keff->k - twin.keff->k) <= tol))
    r.check("k differs by more than the path tolerance", where);
}

Result trace_solves(const Options& o, const DeckSpec& spec) {
  Result r;
  const std::vector<DeckSpec> specs = {spec};
  const std::string json = o.work_dir + "/record.json";
  // The thread ladder runs first and doubles as the warm-up.
  const SetOutcome ladder1 = solve_set(r, specs, 1, false, json);
  const SetOutcome ladder2 = solve_set(r, specs, 2, false, json);
  std::vector<SetOutcome> plain, traced;
  for (int i = 0; i < 2; ++i) {
    plain.push_back(solve_set(r, specs, spec.threads, false, json));
    traced.push_back(solve_set(r, specs, spec.threads, true, json));
  }
  check_solve(r, spec, plain[0].records[0], nullptr, "default threads");
  check_ladder(r, specs, plain[0], ladder1, "1 thread");
  check_ladder(r, specs, plain[0], ladder2, "2 threads");
  check_ladder(r, specs, plain[0], plain[1], "repeat");
  check_ladder(r, specs, plain[0], traced[0], "traced");
  const RunRecord& own = plain[0].records[0];

  // Cross-path twins: the other inner solver, the other preassembly mode.
  DeckSpec other_inners = spec;
  other_inners.inners =
      spec.inners == "gmres" ? "source-iteration" : "gmres";
  const SetOutcome inners_twin =
      solve_set(r, {other_inners}, spec.threads, true, json);
  check_solve(r, other_inners, inners_twin.records[0], nullptr,
              "inners twin");
  check_twin(r, own, inners_twin.records[0], 100.0 * spec.epsi,
             "SI vs GMRES");
  DeckSpec other_pre = spec;
  other_pre.preassembly =
      spec.preassembly == "none" ? "explicit-inverse" : "none";
  std::optional<SetOutcome> pre_twin;
  if (spec.mode == "keff" || spec.preassembly != "none") {
    pre_twin = solve_set(r, {other_pre}, spec.threads, true, json);
    check_twin(r, own, pre_twin->records[0], 1e-9,
               "preassembly none vs explicit-inverse");
  }

  const bool own_krylov = spec.inners == "gmres";
  const SetOutcome& krylov = own_krylov ? traced[0] : inners_twin;
  // keff preassembles nothing itself: its preassembly layer is read from
  // the explicit-inverse twin.
  const SetOutcome& pre =
      spec.preassembly == "none" && pre_twin ? *pre_twin : traced[0];
  add_core_layer_metrics(r, plain, traced, ladder1, ladder2, krylov, pre);

  // Served pass: a miss, then a cache hit, of the same deck at the
  // in-process thread count; both must match the in-process digest.
  const ServedPass pass = serve_sequentially(
      o, {render(with_threads(spec, o.nproc)),
          render(with_threads(spec, o.nproc))});
  for (const Submission& s : pass.subs) {
    ++r.attempted;
    if (!s.done) {
      ++r.failed;
      continue;
    }
    r.check(check_digest_equal(*own.flux,
                               digest_from_json(s.record.at("flux"))),
            "served vs in-process");
  }
  add_serve_layer_metrics(r, pass.subs, pass.status_polls);
  return r;
}

// --- serve-mix -------------------------------------------------------------

struct Slot {
  long index = 0;
  bool ok = false;
  Submission sub;
};

std::string served_deck(std::uint64_t seed,
                        const std::vector<std::string>& repeats,
                        long index) {
  const int r = repeat_slot(index);
  return r >= 0 ? repeats[static_cast<std::size_t>(r)]
                : render(unique_deck(seed, index));
}

Result serve_mix(const Options& o) {
  Result r;
  const std::vector<DeckSpec> repeat_specs = repeat_decks(o.seed);
  std::vector<std::string> repeats;
  for (const DeckSpec& s : repeat_specs) repeats.push_back(render(s));

  // Set-up: the daemon's cold start, from its spawn until it answers
  // ping. The cache warm-up after it is not timed: each warm submission
  // ends on one of await_terminal's poll steps (up to 100 ms apart), so
  // its sum jumps between runs by whole steps.
  const Clock::time_point t_spawn = Clock::now();
  Daemon daemon(PERFBENCH_UNSNAPD, socket_path(o),
                o.work_dir + "/unsnapd.log");
  daemon.wait_ready(60.0);
  const double setup_s = seconds_between(t_spawn, Clock::now());
  std::vector<Slot> slots;
  for (std::size_t i = 0; i < repeats.size(); ++i) {
    Slot warm{-1 - static_cast<long>(i), false,
              submit(daemon.socket_path(), repeats[i])};
    warm.ok = warm.sub.done;
    slots.push_back(std::move(warm));
  }
  const long polls0 = status_requests(daemon.stats());

  // Closed loop: nproc clients, each submission on its own connection;
  // submissions are drawn in whole rounds.
  std::mutex mu;
  long next = 0;
  bool stopped = false;
  std::vector<std::vector<Slot>> per_client(
      static_cast<std::size_t>(o.nproc));
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < o.nproc; ++c)
      clients.emplace_back([&, c] {
        std::vector<Slot>& mine = per_client[static_cast<std::size_t>(c)];
        while (true) {
          long index = 0;
          {
            std::lock_guard lock(mu);
            const double elapsed = seconds_between(t0, Clock::now());
            if (!stopped && next % kRoundSize == 0 &&
                ((elapsed >= o.seconds && next >= kMinSubmissions) ||
                 elapsed >= kHardCapSeconds))
              stopped = true;
            if (stopped) return;
            index = next++;
          }
          Slot slot{index, false, {}};
          try {
            slot.sub = submit(daemon.socket_path(),
                              served_deck(o.seed, repeats, index));
            slot.ok = slot.sub.done;
          } catch (const std::exception& err) {
            log("submission " + std::to_string(index) + " failed: " +
                err.what());
          }
          mine.push_back(std::move(slot));
        }
      });
    for (std::thread& t : clients) t.join();
  }
  const double window_s = seconds_between(t0, Clock::now());
  const long status_polls = status_requests(daemon.stats()) - polls0;
  const double daemon_rss = daemon.peak_rss_mb();
  if (daemon.stop() != 0) r.errors.push_back("unsnapd exited uncleanly");

  std::vector<Submission> window;
  std::vector<double> walls, latencies;
  long sweeps = 0;
  for (std::vector<Slot>& mine : per_client)
    for (Slot& s : mine) {
      ++r.attempted;
      if (!s.ok) {
        ++r.failed;
        continue;
      }
      walls.push_back(s.sub.wall_s);
      latencies.push_back(s.sub.latency_s);
      sweeps += s.sub.record.at("iteration").get_int("sweeps");
      window.push_back(s.sub);
      slots.push_back(std::move(s));
    }
  if (window.empty()) throw std::runtime_error("no submission succeeded");
  const long rounds = r.attempted / kRoundSize;

  // Every served record against the same deck run in-process.
  const std::string json = o.work_dir + "/record.json";
  std::vector<RunRecord> repeat_reference;
  for (const std::string& deck : repeats)
    repeat_reference.push_back(solve_deck(deck, json).record);
  std::optional<double> mms_error[kRepeatDecks];
  for (const Slot& s : slots) {
    if (!s.ok) {
      r.errors.push_back("warm-up submission failed");
      continue;
    }
    const long index = s.index < 0 ? 0 : s.index;
    const int rep = s.index < 0 ? static_cast<int>(-1 - s.index)
                                : repeat_slot(index);
    const Digest served = digest_from_json(s.sub.record.at("flux"));
    if (rep >= 0) {
      r.check(check_digest_equal(
                  *repeat_reference[static_cast<std::size_t>(rep)].flux,
                  served),
              "served repeat " + std::to_string(rep));
      if (const unsnap::util::JsonValue* mms = s.sub.record.find("mms"))
        mms_error[rep] = mms->get_number("l2_error");
    } else {
      const RunRecord ref =
          solve_deck(render(unique_deck(o.seed, index)), json).record;
      r.check(check_digest_equal(*ref.flux, served),
              "served unique " + std::to_string(index));
    }
  }
  if (mms_error[kMmsCoarse] && mms_error[kMmsFine])
    r.check(check_mms_order(*mms_error[kMmsCoarse], *mms_error[kMmsFine],
                            kMmsOrder),
            "served mms");
  else
    r.errors.push_back("served mms: no MMS records");

  if (!o.trace) {
    r.add("wall_s", median(walls), "s");
    r.add("setup_s", setup_s, "s");
    r.add("sweeps", static_cast<double>(sweeps) / static_cast<double>(rounds),
          "count");
    r.add("peak_rss_mb", daemon_rss, "MB");
    r.add("served_runs_per_s", static_cast<double>(window.size()) / window_s,
          "runs/s");
    r.add("served_p50_s", median(latencies), "s");
    r.add("served_p99_s", quantile(latencies, 0.99), "s");
    return r;
  }

  // Traced: the daemon's layers from the window, the in-process layers
  // from the repeat decks solved back to back as one operation.
  const SetOutcome ladder1 = solve_set(r, repeat_specs, 1, false, json);
  const SetOutcome ladder2 = solve_set(r, repeat_specs, 2, false, json);
  std::vector<SetOutcome> plain, traced;
  for (int i = 0; i < 2; ++i) {
    plain.push_back(solve_set(r, repeat_specs, 0, false, json));
    traced.push_back(solve_set(r, repeat_specs, 0, true, json));
  }
  check_ladder(r, repeat_specs, plain[0], ladder1, "1 thread");
  check_ladder(r, repeat_specs, plain[0], ladder2, "2 threads");
  check_ladder(r, repeat_specs, plain[0], traced[0], "traced");
  add_core_layer_metrics(r, plain, traced, ladder1, ladder2, traced[0],
                         traced[0]);
  add_serve_layer_metrics(r, window, static_cast<double>(status_polls));
  return r;
}

}  // namespace

Result run_workload(const Options& o) {
  if (o.workload == "serve-mix") return serve_mix(o);
  const std::string library = library_path();
  const DeckSpec spec = workload_deck(o, library);
  return o.trace ? trace_solves(o, spec) : measure_solves(o, spec, library);
}

}  // namespace perfbench
