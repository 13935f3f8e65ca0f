//===- LocalizeServer.h - Batch/daemon localization service -----*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived batch driver behind `bugassist serve` (docs/SERVE.md is
/// the wire-format reference, docs/ARCHITECTURE.md the design rationale).
/// One LocalizeServer::run() call reads JSON-lines requests (localize /
/// repair / maxsat / sat, each with optional per-request budgets) from a
/// stream until EOF, answers them on a pool of Threads identical workers
/// fed by a bounded FIFO, and writes framed responses -- header line,
/// verbatim body bytes, stats trailer line -- to the output stream *in
/// request order*. The same call serves both front-ends: `--batch FILE`
/// hands it an ifstream, the daemon loop hands it stdin.
///
/// Per the determinism contract, a localize body is byte-identical to the
/// stdout of the equivalent one-shot `bugassist localize` run, at every
/// pool width: programs resolve through the encode-once FormulaCache,
/// queries run on clone()s of the cached base session, and the canonical
/// reports depend only on the formula. A maxsat/sat body equals the
/// one-shot stdout with the `c` comment lines removed.
///
/// Failure semantics (docs/SERVE.md has the full contract): a malformed
/// request line, an uncompilable program, or an exhausted per-request
/// budget produces an `error` / `incomplete` response for that id and
/// nothing else. An attempt that throws (a real OOM, an injected fault) is
/// caught in its worker and retried in place with bounded retries under
/// exponential backoff, the last attempt under a degraded budget, and a
/// request that crashes every attempt gets a `worker-crashed` error
/// response -- the pool never shrinks and no accepted request goes
/// unanswered. The reader stops reading while 2 x Threads decoded
/// requests wait, and a request is freed once its frame is emitted, so
/// memory does not grow with the length of the input. Both ways to stop a
/// request ride on its one QueryBudget, which every solver of the request
/// polls: the watchdog (WatchdogSeconds) is a deadline counted from the
/// request's start, and requestDrain() -- wired to SIGINT/SIGTERM by the
/// CLI -- is its cancel flag. A drain stops intake, ends in-flight
/// requests `incomplete`, and answers still-queued requests with
/// `cancelled`, so every accepted request still gets exactly one
/// well-formed response.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_SERVE_LOCALIZESERVER_H
#define BUGASSIST_SERVE_LOCALIZESERVER_H

#include <cstdint>
#include <iosfwd>
#include <string>

namespace bugassist {

struct ServeOptions {
  /// Pool width: workers answering requests concurrently. Output bytes do
  /// not depend on it; wall-clock does.
  size_t Threads = 1;
  /// Crash retries per request: a request whose attempt throws is re-run
  /// up to this many times, 5 ms x 2^(k-1) after the k-th crash (the final
  /// retry under a degraded budget), before it is answered with a
  /// `worker-crashed` error. Retried queries stay byte-identical -- they
  /// clone the same cached base session. 0 turns retry off (a crashed
  /// request errors immediately).
  int MaxRetries = 2;
  /// Per-request wall deadline, counted from the request's start: the
  /// request's deadline is the smaller of this and its own timeout, so a
  /// request running longer comes back `incomplete`, freeing its worker.
  /// 0 disables the watchdog.
  double WatchdogSeconds = 0;
};

/// What one run() produced, mirrored by the JSON summary record written to
/// the error stream.
struct ServeSummary {
  uint64_t Requests = 0;
  uint64_t Ok = 0;         ///< status "ok"
  uint64_t Incomplete = 0; ///< status "incomplete" (budget exhausted)
  uint64_t Errors = 0;     ///< status "error"
  uint64_t Cancelled = 0;  ///< status "cancelled" (accepted, then drained)
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0; ///< == programs parsed + encoded
  /// Contained crashes: request attempts, queue pops and frame emits that
  /// threw (the name predates in-place retries).
  uint64_t Respawns = 0;
  uint64_t Retries = 0; ///< request re-runs after an attempt threw
  bool Drained = false;     ///< a drain request stopped intake early
  /// Process exit code: 1 when any request errored, else 2 when any was
  /// budget-limited or cancelled, else 0 (docs/SERVE.md, "Exit codes").
  int ExitCode = 0;
};

class LocalizeServer {
public:
  explicit LocalizeServer(const ServeOptions &Opts) : Opts(Opts) {}

  /// Serves \p In to EOF (or drain). Responses go to \p Out in request
  /// order (each flushed as soon as it is next, so a daemon sees answers
  /// as they complete); the one-line JSON summary goes to \p Err.
  /// Reentrant per server: each call builds its own cache and pool, and
  /// clears any stale drain request on entry.
  ServeSummary run(std::istream &In, std::ostream &Out, std::ostream &Err);

  /// Initiates a graceful drain of the (process-global) running serve
  /// loop: intake stops, in-flight requests see their cancel flag and end
  /// `incomplete`, queued requests are answered `cancelled`, and run()
  /// returns with Drained set. Async-signal-safe (one atomic store) --
  /// the CLI's SIGINT/SIGTERM handlers call exactly this.
  static void requestDrain();

  /// True once requestDrain() was called (and not yet cleared by a fresh
  /// run()).
  static bool drainRequested();

private:
  ServeOptions Opts;
};

} // namespace bugassist

#endif // BUGASSIST_SERVE_LOCALIZESERVER_H
