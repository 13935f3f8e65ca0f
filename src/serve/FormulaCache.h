//===- FormulaCache.h - Encode-once program cache for serve -----*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "one encoding, many queries" half of serve mode (docs/SERVE.md,
/// "Formula cache"). Every localize request resolves its program through
/// this cache: the key is the exact source text plus every option that
/// shapes the trace formula (entry, UnrollOptions, EncodeOptions), the
/// value is the PreparedProgram (parse + sema + unroll + encode, done
/// exactly once) together with a lazily built *base* MaxSAT session over
/// TraceFormula::sharedInstance(). The base session is never solved;
/// queries clone() it and add their per-test clauses, so the cost of
/// loading TF1 into a solver is also paid once per formula.
///
/// Concurrency: lookups from any number of pool workers are safe. The
/// first thread to request a key builds the entry under a per-entry mutex
/// and sets its built flag; concurrent requesters of the same key block on
/// the mutex until it is ready (encoding still happens exactly once -- the
/// invariant the tests assert via the miss counter), and later ones see
/// the flag without locking. A build that throws leaves the flag unset, so
/// the next request builds the entry again. Base sessions are built under
/// a per-entry mutex on first use and are immutable afterwards, so
/// concurrent clone() calls need no further locking.
///
/// Keys hash with FNV-1a for bucket placement but compare by the full
/// serialized key, so a hash collision costs a probe, never a wrong
/// answer.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_SERVE_FORMULACACHE_H
#define BUGASSIST_SERVE_FORMULACACHE_H

#include "core/Pipeline.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace bugassist {

/// One cached program. Exactly one of Prepared / Error is meaningful:
/// compile errors are cached too (a batch that repeats a broken program
/// re-parses it zero times, same as a working one).
class CachedProgram {
public:
  /// The prepared program, or nullptr when the source did not compile.
  const PreparedProgram *prepared() const { return Prepared.get(); }
  /// Rendered diagnostics (CompileError) or the missing-entry message
  /// (BadRequest) when prepared() is nullptr.
  const std::string &error() const { return Error; }
  ErrorCode errorCode() const { return Code; }

  /// A fresh session for one query: a clone of the base session (built on
  /// first use). Requires prepared() != nullptr. The parameter exists only
  /// for perfbench, which still passes it, and is ignored.
  std::unique_ptr<MaxSatSession>
  cloneSession(bool /*Weighted*/ = false) const;

private:
  friend class FormulaCache;

  /// Guards the one build; Built is set (release) once it completed.
  /// Everything below up to BaseMu is written only under BuildMu, before
  /// Built, and read only after an acquire load of Built saw it set.
  std::mutex BuildMu;
  std::atomic<bool> Built{false};
  std::unique_ptr<PreparedProgram> Prepared;
  std::string Error;
  ErrorCode Code = ErrorCode::Ok;

  /// The base session, built lazily under BaseMu and immutable afterwards
  /// (cloned, never solved).
  mutable std::mutex BaseMu;
  mutable std::unique_ptr<MaxSatSession> Base;
};

/// Statistics snapshot: Misses counts cache entries *built* (== programs
/// parsed/encoded since the cache was created), Hits counts lookups that
/// found an existing entry. Lookups == Hits + Misses.
struct FormulaCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

class FormulaCache {
public:
  /// Resolves (\p Source, \p Entry, \p Unroll, \p Encode) to its cached
  /// program, building it on first request. \p WasHit (optional) receives
  /// this lookup's outcome -- what the serve response header reports.
  /// Check CachedProgram::prepared() for compile failures. Thread-safe.
  const CachedProgram &lookup(const std::string &Source,
                              const std::string &Entry,
                              const UnrollOptions &Unroll,
                              const EncodeOptions &Encode,
                              bool *WasHit = nullptr);

  /// Current counters (racy snapshot while lookups are in flight; exact
  /// once the pool has drained).
  FormulaCacheStats stats() const;

private:
  /// FNV-1a over the serialized key: cheap, deterministic across runs, and
  /// collisions only cost an equality probe on the full key.
  struct FnvHash {
    size_t operator()(const std::string &S) const {
      uint64_t H = 1469598103934665603ull;
      for (unsigned char C : S) {
        H ^= C;
        H *= 1099511628211ull;
      }
      return static_cast<size_t>(H);
    }
  };

  mutable std::mutex Mu;
  /// Serialized key -> entry. unique_ptr keeps CachedProgram addresses
  /// stable across rehashes (lookup returns references).
  std::unordered_map<std::string, std::unique_ptr<CachedProgram>, FnvHash> Map;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// The cache key serialization (exposed for tests): every field of
/// UnrollOptions and EncodeOptions, the entry name, and the source text,
/// length-prefixed so no two distinct keys collide as strings.
std::string serializeCacheKey(const std::string &Source,
                              const std::string &Entry,
                              const UnrollOptions &Unroll,
                              const EncodeOptions &Encode);

} // namespace bugassist

#endif // BUGASSIST_SERVE_FORMULACACHE_H
