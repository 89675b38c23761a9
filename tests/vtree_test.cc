#include <gtest/gtest.h>

#include <algorithm>

#include "vtree/vtree.h"

namespace tbc {
namespace {

TEST(VtreeTest, RightLinearShape) {
  Vtree t = Vtree::RightLinear({0, 1, 2, 3});
  EXPECT_EQ(t.ToString(), "(0 (1 (2 3)))");
  EXPECT_EQ(t.num_vars(), 4u);
  EXPECT_EQ(t.num_nodes(), 7u);
  // Right-linear: every internal node's left child is a leaf.
  for (VtreeId v = 0; v < t.num_nodes(); ++v) {
    if (!t.IsLeaf(v)) {
      EXPECT_TRUE(t.IsLeaf(t.left(v)));
    }
  }
}

TEST(VtreeTest, LeftLinearShape) {
  Vtree t = Vtree::LeftLinear({0, 1, 2});
  EXPECT_EQ(t.ToString(), "((0 1) 2)");
}

TEST(VtreeTest, BalancedShape) {
  Vtree t = Vtree::Balanced({0, 1, 2, 3});
  EXPECT_EQ(t.ToString(), "((0 1) (2 3))");
  Vtree t5 = Vtree::Balanced({0, 1, 2, 3, 4});
  EXPECT_EQ(t5.ToString(), "(((0 1) 2) (3 4))");
}

TEST(VtreeTest, SingleVariable) {
  Vtree t = Vtree::Balanced({0});
  EXPECT_EQ(t.ToString(), "0");
  EXPECT_TRUE(t.IsLeaf(t.root()));
}

TEST(VtreeTest, ConstrainedPlacesBottomOnRightSpine) {
  // Constrained vtree for bottom|top: Fig 10(b).
  Vtree t = Vtree::Constrained({0, 1}, {2, 3});
  EXPECT_EQ(t.ToString(), "(0 (1 (2 3)))");
  // The node over {2,3} is reachable via right children only.
  VtreeId u = t.right(t.right(t.root()));
  std::vector<Var> below = t.VarsBelow(u);
  std::sort(below.begin(), below.end());
  EXPECT_EQ(below, (std::vector<Var>{2, 3}));
}

TEST(VtreeTest, PositionsAreInOrder) {
  Vtree t = Vtree::Balanced({0, 1, 2, 3});
  // In-order: 0, (01), 1, root, 2, (23), 3.
  EXPECT_EQ(t.position(t.LeafOfVar(0)), 0u);
  EXPECT_EQ(t.position(t.LeafOfVar(1)), 2u);
  EXPECT_EQ(t.position(t.root()), 3u);
  EXPECT_EQ(t.position(t.LeafOfVar(3)), 6u);
}

TEST(VtreeTest, AncestorAndLca) {
  Vtree t = Vtree::Balanced({0, 1, 2, 3});
  VtreeId l0 = t.LeafOfVar(0), l1 = t.LeafOfVar(1), l3 = t.LeafOfVar(3);
  EXPECT_TRUE(t.IsAncestorOrSelf(t.root(), l0));
  EXPECT_TRUE(t.IsAncestorOrSelf(l0, l0));
  EXPECT_FALSE(t.IsAncestorOrSelf(l0, l1));
  EXPECT_EQ(t.Lca(l0, l1), t.parent(l0));
  EXPECT_EQ(t.Lca(l0, l3), t.root());
  EXPECT_EQ(t.Lca(l0, l0), l0);
}

TEST(VtreeTest, VarsBelowAndCounts) {
  Vtree t = Vtree::Balanced({0, 1, 2, 3, 4});
  EXPECT_EQ(t.NumVarsBelow(t.root()), 5u);
  std::vector<Var> all = t.VarsBelow(t.root());
  EXPECT_EQ(all, (std::vector<Var>{0, 1, 2, 3, 4}));  // leaf order
  EXPECT_EQ(t.NumVarsBelow(t.left(t.root())), 3u);
}

TEST(VtreeTest, DepthAndParents) {
  Vtree t = Vtree::RightLinear({0, 1, 2});
  EXPECT_EQ(t.Depth(t.root()), 0u);
  EXPECT_EQ(t.Depth(t.LeafOfVar(0)), 1u);
  EXPECT_EQ(t.Depth(t.LeafOfVar(2)), 2u);
  EXPECT_EQ(t.parent(t.root()), kInvalidVtree);
}

TEST(VtreeTest, FileFormatRoundTrip) {
  for (const Vtree& t :
       {Vtree::Balanced({0, 1, 2, 3, 4}), Vtree::RightLinear({2, 0, 1}),
        Vtree::Constrained({0, 1}, {2, 3, 4})}) {
    auto parsed = Vtree::Parse(t.ToFileString());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().ToString(), t.ToString());
    EXPECT_EQ(parsed.value().num_vars(), t.num_vars());
  }
}

TEST(VtreeTest, ParseErrors) {
  EXPECT_FALSE(Vtree::Parse("").ok());
  EXPECT_FALSE(Vtree::Parse("L 0 1\n").ok());                 // no header
  EXPECT_FALSE(Vtree::Parse("vtree 3\nI 0 1 2\n").ok());      // forward ref
  EXPECT_FALSE(Vtree::Parse("vtree 1\nL 0 0\n").ok());        // 0-based var
  EXPECT_FALSE(Vtree::Parse("vtree 1\nX 0 1\n").ok());        // unknown line
  // Comments are skipped.
  auto ok = Vtree::Parse("c hello\nvtree 1\nL 0 3\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().ToString(), "2");
}

TEST(VtreeTest, ParseRejectsDuplicateLeafVariable) {
  // The same variable in two leaves is malformed input, and must produce a
  // typed error instead of aborting the process.
  auto dup = Vtree::Parse("vtree 3\nL 0 1\nL 1 1\nI 2 0 1\n");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidInput);
}

TEST(VtreeTest, ParseRejectsForest) {
  // Two disjoint trees in one file: the last-defined node used to be
  // silently taken as the root, orphaning the rest. Now a typed error.
  auto forest = Vtree::Parse(
      "vtree 6\nL 0 1\nL 1 2\nI 2 0 1\nL 3 3\nL 4 4\nI 5 3 4\n");
  ASSERT_FALSE(forest.ok());
  EXPECT_EQ(forest.status().code(), StatusCode::kInvalidInput);
}

TEST(VtreeTest, ParseErrorsAreTypedInvalidInput) {
  for (const char* text :
       {"", "L 0 1\n", "vtree 3\nI 0 1 2\n", "vtree 1\nL 0 0\n",
        "vtree 1\nX 0 1\n",
        // A node under two parents, or twice under one, is not a tree: its
        // in-order walk would hand out positions past the node count.
        "vtree 2\nL 0 1\nI 1 0 0\n",
        "vtree 4\nL 0 1\nL 1 2\nI 2 0 1\nI 3 2 2\n",
        "vtree 4\nL 0 1\nL 1 2\nI 2 0 1\nI 3 2 0\n",
        // Trailing junk, and a variable past DIMACS's 2^28.
        "vtree 1\nL 0 1x\n", "vtree 3\nL 0 1\nL 1 2\nI 2 0 1junk\n",
        "vtree 1\nL 0 268435457\n"}) {
    auto parsed = Vtree::Parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidInput) << text;
  }
}

TEST(VtreeTest, RandomVtreesAreValid) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    Vtree t = Vtree::Random(Vtree::IdentityOrder(7), rng);
    EXPECT_EQ(t.num_vars(), 7u);
    EXPECT_EQ(t.num_nodes(), 13u);  // full binary tree: 2*7 - 1
    std::vector<Var> below = t.VarsBelow(t.root());
    std::sort(below.begin(), below.end());
    EXPECT_EQ(below, Vtree::IdentityOrder(7));
  }
}

TEST(VtreeTest, NonIdentityOrder) {
  Vtree t = Vtree::RightLinear({2, 0, 1});
  EXPECT_EQ(t.ToString(), "(2 (0 1))");
  EXPECT_EQ(t.var(t.LeafOfVar(2)), 2u);
  EXPECT_EQ(t.position(t.LeafOfVar(2)), 0u);
}

// Structural invariants a vtree must satisfy after any in-place edit:
// parent links mirror child links, in-order positions are consistent with
// the tree shape, NumVarsBelow adds up, and the leaf-of-var map is intact.
void ExpectWellFormed(const Vtree& t) {
  // Round-tripping through the file format rebuilds every derived field
  // from scratch; shape-equal means all caches were maintained correctly.
  auto reparsed = Vtree::Parse(t.ToFileString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().ToString(), t.ToString());
  for (VtreeId v = 0; v < t.num_nodes(); ++v) {
    if (t.IsLeaf(v)) {
      EXPECT_EQ(t.LeafOfVar(t.var(v)), v);
      EXPECT_EQ(t.NumVarsBelow(v), 1u);
      continue;
    }
    EXPECT_EQ(t.parent(t.left(v)), v);
    EXPECT_EQ(t.parent(t.right(v)), v);
    EXPECT_EQ(t.NumVarsBelow(v),
              t.NumVarsBelow(t.left(v)) + t.NumVarsBelow(t.right(v)));
    // In-order: everything left of v is before it, everything right after.
    EXPECT_LT(t.position(t.left(v)), t.position(v));
    EXPECT_GT(t.position(t.right(v)), t.position(v));
  }
}

TEST(VtreeTest, InPlaceRotationsKeepInvariantsAndInvert) {
  Vtree t = Vtree::Balanced(Vtree::IdentityOrder(7));
  const std::string original = t.ToString();
  // v=(l=(a,b),c) -> v=(a, l=(b,c)): ids stay put, only links move.
  ASSERT_TRUE(t.RotateRightAt(t.root()));
  EXPECT_NE(t.ToString(), original);
  ExpectWellFormed(t);
  ASSERT_TRUE(t.RotateLeftAt(t.root()));
  EXPECT_EQ(t.ToString(), original);  // exact inverses
  ExpectWellFormed(t);
}

TEST(VtreeTest, InPlaceSwapIsSelfInverse) {
  Vtree t = Vtree::Balanced(Vtree::IdentityOrder(6));
  const std::string original = t.ToString();
  ASSERT_TRUE(t.SwapChildrenAt(t.root()));
  EXPECT_NE(t.ToString(), original);
  ExpectWellFormed(t);
  ASSERT_TRUE(t.SwapChildrenAt(t.root()));
  EXPECT_EQ(t.ToString(), original);
  ExpectWellFormed(t);
}

TEST(VtreeTest, InPlaceOpsReportInapplicableWithoutMutating) {
  Vtree t = Vtree::RightLinear(Vtree::IdentityOrder(4));
  const std::string original = t.ToString();
  // Leaves cannot rotate or swap.
  EXPECT_FALSE(t.RotateRightAt(t.LeafOfVar(0)));
  EXPECT_FALSE(t.RotateLeftAt(t.LeafOfVar(0)));
  EXPECT_FALSE(t.SwapChildrenAt(t.LeafOfVar(0)));
  // Right-linear internal nodes all have leaf left children: no rotate right.
  for (VtreeId v = 0; v < t.num_nodes(); ++v) {
    if (!t.IsLeaf(v)) {
      EXPECT_FALSE(t.RotateRightAt(v));
    }
  }
  EXPECT_EQ(t.ToString(), original);  // every refusal left the tree untouched
  ExpectWellFormed(t);
}

TEST(VtreeTest, InPlaceRandomWalkStaysWellFormed) {
  Rng rng(91);
  Vtree t = Vtree::Balanced(Vtree::IdentityOrder(9));
  size_t applied = 0;
  for (int step = 0; step < 200; ++step) {
    const VtreeId v = static_cast<VtreeId>(rng.Below(t.num_nodes()));
    switch (rng.Below(3)) {
      case 0: applied += t.RotateRightAt(v); break;
      case 1: applied += t.RotateLeftAt(v); break;
      default: applied += t.SwapChildrenAt(v); break;
    }
  }
  EXPECT_GT(applied, 50u);
  ExpectWellFormed(t);
  // The walk permutes shape, never the variable set.
  std::vector<Var> below = t.VarsBelow(t.root());
  std::sort(below.begin(), below.end());
  EXPECT_EQ(below, Vtree::IdentityOrder(9));
}

// The parent-pointer walks that IsAncestorOrSelf and Lca replaced: the
// oracle for their position-range versions.
bool WalkIsAncestorOrSelf(const Vtree& t, VtreeId a, VtreeId b) {
  for (VtreeId v = b; v != kInvalidVtree; v = t.parent(v)) {
    if (v == a) return true;
  }
  return false;
}

VtreeId WalkLca(const Vtree& t, VtreeId a, VtreeId b) {
  while (!WalkIsAncestorOrSelf(t, a, b)) a = t.parent(a);
  return a;
}

TEST(VtreeTest, AncestryMatchesParentWalkUnderRandomEdits) {
  Rng rng(57);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.Below(12);
    Vtree t = Vtree::Random(Vtree::IdentityOrder(n), rng);
    for (int step = 0; step < 30; ++step) {
      for (VtreeId a = 0; a < t.num_nodes(); ++a) {
        for (VtreeId b = 0; b < t.num_nodes(); ++b) {
          ASSERT_EQ(t.IsAncestorOrSelf(a, b), WalkIsAncestorOrSelf(t, a, b))
              << t.ToString() << " a=" << a << " b=" << b;
          ASSERT_EQ(t.Lca(a, b), WalkLca(t, a, b))
              << t.ToString() << " a=" << a << " b=" << b;
        }
      }
      const VtreeId v = static_cast<VtreeId>(rng.Below(t.num_nodes()));
      switch (rng.Below(3)) {
        case 0: t.RotateRightAt(v); break;
        case 1: t.RotateLeftAt(v); break;
        default: t.SwapChildrenAt(v); break;
      }
    }
  }
}

}  // namespace
}  // namespace tbc
