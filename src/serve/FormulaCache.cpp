//===- FormulaCache.cpp - Encode-once program cache for serve -------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/FormulaCache.h"

#include "support/FaultInject.h"

#include <stdexcept>

using namespace bugassist;

namespace {

/// Length-prefixed field framing: no concatenation of two distinct key
/// tuples can produce the same string.
void putStr(std::string &Out, std::string_view S) {
  Out += std::to_string(S.size());
  Out += ':';
  Out += S;
  Out += ';';
}

void putInt(std::string &Out, int64_t V) { putStr(Out, std::to_string(V)); }

void putBool(std::string &Out, bool B) { Out += B ? "T;" : "F;"; }

} // namespace

std::string bugassist::serializeCacheKey(const std::string &Source,
                                         const std::string &Entry,
                                         const UnrollOptions &U,
                                         const EncodeOptions &E) {
  std::string Key;
  putStr(Key, Entry);
  putInt(Key, U.MaxLoopUnwind);
  putInt(Key, static_cast<int64_t>(U.LoopUnwindByLine.size()));
  for (const auto &[Line, Bound] : U.LoopUnwindByLine) {
    putInt(Key, Line);
    putInt(Key, Bound);
  }
  putInt(Key, U.MaxInlineDepth);
  putInt(Key, U.BitWidth);
  putBool(Key, U.CheckArrayBounds);
  putInt(Key, static_cast<int64_t>(U.TrustedFunctions.size()));
  for (const std::string &F : U.TrustedFunctions)
    putStr(Key, F);
  putInt(Key, static_cast<int64_t>(U.HardLines.size()));
  for (uint32_t L : U.HardLines)
    putInt(Key, L);
  putBool(Key, U.ConcreteInputs.has_value());
  if (U.ConcreteInputs) {
    putInt(Key, static_cast<int64_t>(U.ConcreteInputs->size()));
    for (const InputValue &V : *U.ConcreteInputs) {
      putBool(Key, V.IsArray);
      if (V.IsArray) {
        putInt(Key, static_cast<int64_t>(V.Array.size()));
        for (int64_t X : V.Array)
          putInt(Key, X);
      } else {
        putInt(Key, V.Scalar);
      }
    }
  }
  putInt(Key, E.BitWidth);
  putBool(Key, E.PerIterationGroups);
  putInt(Key, static_cast<int64_t>(E.BaseWeight));
  putBool(Key, E.ConcretizeTrusted);
  putBool(Key, E.GroupPerDefinition);
  putStr(Key, Source);
  return Key;
}

std::unique_ptr<MaxSatSession>
CachedProgram::cloneSession(const Solver::Budget &Budget) const {
  std::lock_guard<std::mutex> Lock(BaseMu);
  if (Base)
    return Base->clone();
  // Preprocess the shared base once; clones inherit the shrunken clause
  // database (and the eliminated-variable reconstruction stack) via the
  // member-wise Solver copy, so per-request solves skip the pass. The
  // test-interface variables are frozen by sharedInstance, so the
  // per-test unit clauses added to clones stay legal. The session stays
  // local until the pass completes: one that throws (an injected OOM, a
  // real one) or that the budget stopped never becomes the base, and the
  // next request builds it again.
  std::unique_ptr<MaxSatSession> S =
      makeFuMalikSession(Prepared->Driver->formula().sharedInstance());
  if (!Budget.unlimited())
    S->setBudget(Budget);
  S->solver().preprocess();
  bool Stopped = S->solver().budgetExhausted();
  S->clearBudget();
  if (Stopped)
    return S;
  Base = std::move(S);
  return Base->clone();
}

const CachedProgram &FormulaCache::lookup(const std::string &Source,
                                          const std::string &Entry,
                                          const UnrollOptions &Unroll,
                                          const EncodeOptions &Encode,
                                          bool *WasHit) {
  std::string Key = serializeCacheKey(Source, Entry, Unroll, Encode);
  CachedProgram *P;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    std::unique_ptr<CachedProgram> &Slot = Map[std::move(Key)];
    bool Hit = static_cast<bool>(Slot);
    if (Hit) {
      ++Hits;
    } else {
      ++Misses;
      Slot = std::make_unique<CachedProgram>();
    }
    if (WasHit)
      *WasHit = Hit;
    P = Slot.get();
  }
  // Build outside the map lock so a slow encode does not serialize
  // lookups of *other* keys; same-key requesters block here until the
  // one build completes. A build that *throws* (the CacheFill fault
  // below, a real OOM in the encoder) unwinds before Built is set and
  // releases the lock, so the next same-key request re-runs the build
  // cleanly -- entries are never poisoned by a half-finished fill. A
  // built entry is read without the lock: the acquire load pairs with
  // the release store that publishes the fill.
  if (P->Built.load(std::memory_order_acquire))
    return *P;
  std::lock_guard<std::mutex> Lock(P->BuildMu);
  if (!P->Built.load(std::memory_order_relaxed)) {
    // Test-only fault hook (one relaxed load when disarmed).
    if (faultinject::active() &&
        faultinject::onEvent(faultinject::Event::CacheFill))
      throw std::runtime_error("injected cache-fill fault");
    P->Prepared =
        prepareProgram(Source, Entry, Unroll, Encode, P->Error, &P->Code);
    P->Built.store(true, std::memory_order_release);
  }
  return *P;
}

FormulaCacheStats FormulaCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return {Hits, Misses};
}
