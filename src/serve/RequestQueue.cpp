//===- RequestQueue.cpp - Bounded FIFO of serve requests ------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/RequestQueue.h"

#include "support/FaultInject.h"

#include <cassert>
#include <stdexcept>

using namespace bugassist;

RequestQueue::RequestQueue(size_t Capacity) : Capacity(Capacity) {
  assert(Capacity > 0 && "a queue that holds nothing blocks the reader");
}

void RequestQueue::push(std::unique_ptr<Request> Req) {
  {
    std::unique_lock<std::mutex> Lock(Mu);
    assert(!Closed && "push after close");
    NonFull.wait(Lock, [&] { return Items.size() < Capacity; });
    Items.push_back(std::move(Req));
  }
  NonEmpty.notify_one();
}

bool RequestQueue::pop(std::unique_ptr<Request> &Req) {
  // Test-only fault hook (one relaxed load when disarmed), fired before
  // anything is dequeued: the request stays queued for the next pop.
  if (faultinject::active() &&
      faultinject::onEvent(faultinject::Event::QueuePop))
    throw std::runtime_error("injected queue-pop fault");
  {
    std::unique_lock<std::mutex> Lock(Mu);
    NonEmpty.wait(Lock, [&] { return !Items.empty() || Closed; });
    if (Items.empty())
      return false;
    Req = std::move(Items.front());
    Items.pop_front();
  }
  NonFull.notify_one();
  return true;
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Closed = true;
  }
  NonEmpty.notify_all();
}
