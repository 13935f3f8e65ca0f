//===- RequestQueue.h - Bounded FIFO of serve requests ----------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dispatch structure of the serve pool (docs/ARCHITECTURE.md, "Serve
/// mode"): one FIFO of decoded requests between the reader and the
/// workers. The queue owns its requests, and a worker owns the one it
/// popped until its frame is emitted, so a run holds at most Capacity
/// queued requests plus one per worker and one the reader is pushing --
/// however long the input.
///
/// A single mutex and two condition variables guard it: requests are
/// MaxSAT queries, milliseconds at minimum, so lock contention is noise
/// and the simplicity buys obvious correctness under TSan.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_SERVE_REQUESTQUEUE_H
#define BUGASSIST_SERVE_REQUESTQUEUE_H

#include "core/OptionTable.h"

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

namespace bugassist {

/// One request line, decoded. Invalid lines never become one of these --
/// the reader answers them directly.
struct Request {
  /// The request's position in the input: its frame's slot in the output.
  size_t Index = 0;
  std::string Id;
  /// The decoded fields of every option the request's `cmd` takes, its
  /// program or formula text included (core/OptionTable.h); Opts.Cmd is
  /// the command.
  CommandOptions Opts{Command::Localize};
  /// The header's `cmd`: "unknown" until a valid one parsed.
  const char *Cmd = "unknown";
};

class RequestQueue {
public:
  explicit RequestQueue(size_t Capacity);

  /// Appends \p Req, blocking while Capacity requests are queued. Called
  /// by the reader thread only.
  void push(std::unique_ptr<Request> Req);

  /// Takes the oldest request into \p Req, blocking while the queue is
  /// empty and open. \returns false once it is empty *and* closed -- the
  /// worker's signal to exit. The `queuepop` fault site throws before
  /// anything is taken, so no request is lost to it.
  bool pop(std::unique_ptr<Request> &Req);

  /// Marks the end of input: pop() returns false once the queue drains.
  void close();

private:
  std::mutex Mu;
  std::condition_variable NonEmpty, NonFull;
  std::deque<std::unique_ptr<Request>> Items;
  const size_t Capacity;
  bool Closed = false;
};

} // namespace bugassist

#endif // BUGASSIST_SERVE_REQUESTQUEUE_H
