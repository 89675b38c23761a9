#ifndef TBC_TESTS_SMALL_STACK_H_
#define TBC_TESTS_SMALL_STACK_H_

#include <gtest/gtest.h>
#include <pthread.h>

#include <cstddef>
#include <functional>

#include "logic/formula.h"
#include "obdd/obdd.h"

namespace tbc {

/// Runs `fn` to completion on a fresh thread with a 1 MB stack. A pass
/// whose recursion depth grows with its input overflows it on a deep
/// input and crashes the test, where the main thread's larger stack could
/// hide the recursion.
inline void RunOnSmallStack(const std::function<void()>& fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, size_t{1} << 20), 0);
  pthread_t thread;
  ASSERT_EQ(pthread_create(
                &thread, &attr,
                [](void* arg) -> void* {
                  (*static_cast<const std::function<void()>*>(arg))();
                  return nullptr;
                },
                const_cast<std::function<void()>*>(&fn)),
            0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  pthread_attr_destroy(&attr);
}

/// A formula DAG 2 * steps deep over x0, x1, x2: f_0 = x0 and
/// f_i = x_{1+i%2} ∨ (x_{2-i%2} ∧ f_{i-1}). From i = 2 on, f_i is x1 ∨ x2.
inline FormulaId DeepFormulaChain(FormulaStore& store, size_t steps) {
  FormulaId f = store.VarNode(0);
  for (size_t i = 1; i <= steps; ++i) {
    const Var a = static_cast<Var>(1 + i % 2);
    const Var b = static_cast<Var>(2 - i % 2);
    f = store.Or(store.VarNode(a), store.And(store.VarNode(b), f));
  }
  return f;
}

/// x0 ∧ … ∧ x_{n-1} in an OBDD over the identity order, n nodes deep,
/// built bottom-up with MakeNode (no Apply, so the build itself is flat).
inline ObddId DeepObddChain(ObddManager& mgr) {
  ObddId f = mgr.True();
  for (size_t v = mgr.num_vars(); v-- > 0;) {
    f = mgr.MakeNode(static_cast<Var>(v), mgr.False(), f);
  }
  return f;
}

}  // namespace tbc

#endif  // TBC_TESTS_SMALL_STACK_H_
