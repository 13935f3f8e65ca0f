//===- OrderedEmitter.cpp - Request-order response emission -----------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/OrderedEmitter.h"

#include "support/FaultInject.h"

#include <ostream>
#include <stdexcept>

using namespace bugassist;

void OrderedEmitter::emit(size_t Index, std::string Payload) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Index < Next)
    return; // already written: the first payload won
  Pending.emplace(Index, std::move(Payload)); // first payload wins
  // Test-only fault hook (one relaxed load when disarmed), fired after
  // the payload is recorded but before any byte is written: the throw
  // leaves a fully recorded response, which the caller's flushReady() or
  // the next emit() then writes -- the exactly-once, no-partial-frame
  // property the emitter tests pin down.
  if (faultinject::active() &&
      faultinject::onEvent(faultinject::Event::EmitterFlush))
    throw std::runtime_error("injected emitter-flush fault");
  flushLocked();
}

void OrderedEmitter::flushReady() {
  std::lock_guard<std::mutex> Lock(Mu);
  flushLocked();
}

void OrderedEmitter::flushLocked() {
  bool Wrote = false;
  while (!Pending.empty() && Pending.begin()->first == Next) {
    const std::string &Payload = Pending.begin()->second;
    Out.write(Payload.data(),
              static_cast<std::streamsize>(Payload.size()));
    Pending.erase(Pending.begin());
    ++Next;
    Wrote = true;
  }
  if (Wrote)
    Out.flush();
}

size_t OrderedEmitter::written() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Next;
}

size_t OrderedEmitter::pending() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Pending.size();
}
