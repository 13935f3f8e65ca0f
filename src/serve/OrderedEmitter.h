//===- OrderedEmitter.h - Request-order response emission -------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The emission half of the serve pool (docs/ARCHITECTURE.md, "Serve
/// mode"): responses are computed out of order by the workers but written
/// in request order. A worker submits its finished response under the
/// emitter's lock and whoever holds the next index flushes the contiguous
/// run -- no dedicated writer thread, and a daemon client sees each
/// response the moment its turn arrives.
///
/// Crash safety (docs/SERVE.md, "Failure semantics"): emit() records the
/// payload before writing a byte, so an emit that throws (an injected
/// flush fault, a real OOM) leaves the response recorded, and the
/// caller's flushReady() -- or the next emit() -- writes it whole. emit()
/// is also *idempotent per index*: a second submission for a recorded or
/// written index is dropped and the first payload wins, so a response is
/// written exactly once. Writes happen under the same lock as recording,
/// each payload in one write() call, so a failing writer can never leave
/// a partial frame interleaved with another response.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_SERVE_ORDEREDEMITTER_H
#define BUGASSIST_SERVE_ORDEREDEMITTER_H

#include <cstddef>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>

namespace bugassist {

class OrderedEmitter {
public:
  explicit OrderedEmitter(std::ostream &Out) : Out(Out) {}

  /// Records \p Payload for request \p Index and flushes the contiguous
  /// run starting at the next unwritten index, if this submission
  /// completed one. Idempotent per index: re-submissions are dropped,
  /// the first payload wins.
  void emit(size_t Index, std::string Payload);

  /// Flushes whatever contiguous run is ready without submitting
  /// anything. The server calls this after an emit() threw, so the
  /// payload it recorded reaches the stream without waiting for the next
  /// emit() -- which a daemon client awaiting this response never sends.
  void flushReady();

  /// Responses fully written so far (== the next index awaited).
  size_t written() const;

  /// Responses recorded but stalled behind a missing earlier index.
  size_t pending() const;

private:
  void flushLocked();

  mutable std::mutex Mu;
  std::ostream &Out;
  size_t Next = 0;
  std::map<size_t, std::string> Pending;
};

} // namespace bugassist

#endif // BUGASSIST_SERVE_ORDEREDEMITTER_H
