// CompletionScope: per-thread deferral of completion side effects to
// the end of a unit of work.
//
// A thread that resolves many requests at once (a scheduler worker
// finishing a micro-batch) opens a scope; completions that share a
// side effect (flushing one connection's replies) Defer it under one
// key, and it runs once per key when the scope closes, after every
// completion of the batch. With no scope open on the thread, Defer
// runs the action at once, so a completion resolved alone (an
// admission shed) behaves as if nothing were deferred.

#ifndef RELSERVE_COMMON_COMPLETION_SCOPE_H_
#define RELSERVE_COMMON_COMPLETION_SCOPE_H_

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

namespace relserve {

class CompletionScope {
 public:
  CompletionScope() : outer_(current_) { current_ = this; }
  // Runs the deferred actions in the order their keys were first
  // deferred. The scope is closed first, so an action that defers
  // again runs inline (or in the enclosing scope).
  ~CompletionScope() {
    current_ = outer_;
    for (auto& [key, fn] : deferred_) fn();
  }

  CompletionScope(const CompletionScope&) = delete;
  CompletionScope& operator=(const CompletionScope&) = delete;

  // Inside an open scope, queues `fn` to run when the scope closes,
  // unless an action under `key` is already queued; then `fn` is
  // dropped and Defer returns false. With no open scope, runs `fn`
  // now. Returns true whenever `fn` was (or will be) run.
  static bool Defer(const void* key, std::function<void()> fn) {
    CompletionScope* scope = current_;
    if (scope == nullptr) {
      fn();
      return true;
    }
    auto& deferred = scope->deferred_;
    if (std::any_of(deferred.begin(), deferred.end(),
                    [key](const auto& entry) { return entry.first == key; })) {
      return false;
    }
    deferred.emplace_back(key, std::move(fn));
    return true;
  }

 private:
  static inline thread_local CompletionScope* current_ = nullptr;
  CompletionScope* outer_;
  std::vector<std::pair<const void*, std::function<void()>>> deferred_;
};

}  // namespace relserve

#endif  // RELSERVE_COMMON_COMPLETION_SCOPE_H_
