#include <gtest/gtest.h>

#include "objects/object_store.h"
#include "util/coding.h"
#include "workload/paper_schema.h"

namespace uindex {
namespace {

class ObjectStoreTest : public ::testing::Test {
 protected:
  ObjectStoreTest() : p_(PaperSchema::Build()), store_(&p_.schema) {}
  PaperSchema p_;
  ObjectStore store_;
};

TEST_F(ObjectStoreTest, CreateAndGet) {
  const Oid oid = store_.Create(p_.vehicle).value();
  EXPECT_NE(oid, kInvalidOid);
  ASSERT_TRUE(store_.Exists(oid));
  const Object* obj = store_.Get(oid).value();
  EXPECT_EQ(obj->oid, oid);
  EXPECT_EQ(obj->cls, p_.vehicle);
  EXPECT_TRUE(store_.Get(9999).status().IsNotFound());
  EXPECT_EQ(store_.size(), 1u);
}

TEST_F(ObjectStoreTest, AttributesRoundTrip) {
  const Oid oid = store_.Create(p_.employee).value();
  ASSERT_TRUE(store_.SetAttr(oid, "Age", Value::Int(50)).ok());
  ASSERT_TRUE(store_.SetAttr(oid, "Name", Value::Str("Ann")).ok());
  const Object* obj = store_.Get(oid).value();
  EXPECT_EQ(obj->FindAttr("Age")->AsInt(), 50);
  EXPECT_EQ(obj->FindAttr("Name")->AsString(), "Ann");
  EXPECT_EQ(obj->FindAttr("missing"), nullptr);
  // Overwrite.
  ASSERT_TRUE(store_.SetAttr(oid, "Age", Value::Int(51)).ok());
  EXPECT_EQ(store_.Get(oid).value()->FindAttr("Age")->AsInt(), 51);
}

TEST_F(ObjectStoreTest, ExtentsTrackDirectInstances) {
  const Oid v = store_.Create(p_.vehicle).value();
  const Oid a = store_.Create(p_.automobile).value();
  const Oid c = store_.Create(p_.compact_automobile).value();
  EXPECT_EQ(store_.ExtentOf(p_.vehicle).size(), 1u);
  EXPECT_EQ(store_.ExtentOf(p_.automobile).size(), 1u);
  const std::vector<Oid> deep = store_.DeepExtentOf(p_.vehicle);
  EXPECT_EQ(deep.size(), 3u);
  const std::vector<Oid> auto_deep = store_.DeepExtentOf(p_.automobile);
  ASSERT_EQ(auto_deep.size(), 2u);
  EXPECT_EQ(auto_deep[0], a);
  EXPECT_EQ(auto_deep[1], c);
  (void)v;
}

TEST_F(ObjectStoreTest, DerefFollowsSingleReferences) {
  const Oid company = store_.Create(p_.company).value();
  const Oid vehicle = store_.Create(p_.vehicle).value();
  ASSERT_TRUE(
      store_.SetAttr(vehicle, "manufactured-by", Value::Ref(company)).ok());
  EXPECT_EQ(store_.Deref(vehicle, "manufactured-by").value(), company);
  EXPECT_TRUE(store_.Deref(vehicle, "missing").status().IsNotFound());
  ASSERT_TRUE(store_.SetAttr(vehicle, "tags", Value::RefSet({company}))
                  .ok());
  EXPECT_TRUE(store_.Deref(vehicle, "tags").status().IsInvalidArgument());
}

TEST_F(ObjectStoreTest, ReferrersTrackReverseEdges) {
  const Oid company = store_.Create(p_.company).value();
  const Oid v1 = store_.Create(p_.vehicle).value();
  const Oid v2 = store_.Create(p_.vehicle).value();
  ASSERT_TRUE(
      store_.SetAttr(v1, "manufactured-by", Value::Ref(company)).ok());
  ASSERT_TRUE(
      store_.SetAttr(v2, "manufactured-by", Value::Ref(company)).ok());
  auto refs = store_.ReferrersOf(company, "manufactured-by");
  EXPECT_EQ(refs.size(), 2u);

  // Re-pointing v1 somewhere else removes it from the reverse map.
  const Oid other = store_.Create(p_.company).value();
  ASSERT_TRUE(
      store_.SetAttr(v1, "manufactured-by", Value::Ref(other)).ok());
  EXPECT_EQ(store_.ReferrersOf(company, "manufactured-by").size(), 1u);
  EXPECT_EQ(store_.ReferrersOf(other, "manufactured-by").size(), 1u);
}

TEST_F(ObjectStoreTest, MultiValuedReferences) {
  const Oid c1 = store_.Create(p_.company).value();
  const Oid c2 = store_.Create(p_.company).value();
  const Oid v = store_.Create(p_.vehicle).value();
  ASSERT_TRUE(
      store_.SetAttr(v, "manufactured-by", Value::RefSet({c1, c2})).ok());
  EXPECT_EQ(store_.ReferrersOf(c1, "manufactured-by").size(), 1u);
  EXPECT_EQ(store_.ReferrersOf(c2, "manufactured-by").size(), 1u);
  ASSERT_TRUE(store_.SetAttr(v, "manufactured-by", Value::Ref(c1)).ok());
  EXPECT_TRUE(store_.ReferrersOf(c2, "manufactured-by").empty());
}

TEST_F(ObjectStoreTest, DeleteCleansUp) {
  const Oid company = store_.Create(p_.company).value();
  const Oid v = store_.Create(p_.vehicle).value();
  ASSERT_TRUE(
      store_.SetAttr(v, "manufactured-by", Value::Ref(company)).ok());
  ASSERT_TRUE(store_.Delete(v).ok());
  EXPECT_FALSE(store_.Exists(v));
  EXPECT_TRUE(store_.ExtentOf(p_.vehicle).empty());
  EXPECT_TRUE(store_.ReferrersOf(company, "manufactured-by").empty());
  EXPECT_TRUE(store_.Delete(v).IsNotFound());
}

TEST_F(ObjectStoreTest, DeserializeRejectsOutOfRangeAndDuplicateOids) {
  const Oid v = store_.Create(p_.vehicle).value();
  ASSERT_TRUE(store_.SetAttr(v, "Color", Value::Str("Red")).ok());
  const std::string blob = store_.Serialize();
  // Layout: next_oid u32 ∥ count u64 ∥ first object's oid u32 ∥ ...
  const Oid next_oid = DecodeFixed32(blob.data());
  ASSERT_EQ(DecodeFixed32(blob.data() + 12), v);
  {
    ObjectStore fresh(&p_.schema);
    ASSERT_TRUE(fresh.Deserialize(Slice(blob)).ok());
    EXPECT_EQ(fresh.Get(v).value()->FindAttr("Color")->AsString(), "Red");
  }
  // A bogus oid must come back as Corruption, not size a chain table
  // for it (0xFFFFFFFF would ask for gigabytes).
  for (const Oid bad : {kInvalidOid, next_oid, Oid{0xFFFFFFFF}}) {
    std::string corrupt = blob;
    EncodeFixed32(corrupt.data() + 12, bad);
    ObjectStore fresh(&p_.schema);
    EXPECT_TRUE(fresh.Deserialize(Slice(corrupt)).IsCorruption()) << bad;
  }
  // The same object twice.
  std::string twice = blob.substr(0, 4);
  PutFixed64(&twice, 2);
  twice += blob.substr(12);
  twice += blob.substr(12);
  ObjectStore fresh(&p_.schema);
  EXPECT_TRUE(fresh.Deserialize(Slice(twice)).IsCorruption());
}

// ------------------------------------------------------------ reclamation
//
// Mutations run inside ScopedEpoch(w), as a database commit does; a reader
// "pinned" at E reads inside ScopedEpoch(E), and every reclaim passes the
// horizon a pin registry would report (the oldest pin).

class ObjectStoreReclaimTest : public ObjectStoreTest {
 protected:
  template <typename Fn>
  void At(uint64_t epoch, Fn fn) {
    ScopedEpoch scope(epoch);
    fn();
  }
};

TEST_F(ObjectStoreReclaimTest, PinnedReaderResolvesThroughLaterReclaims) {
  Oid c1 = kInvalidOid, c2 = kInvalidOid, v = kInvalidOid, d = kInvalidOid;
  At(1, [&] {
    c1 = store_.Create(p_.company).value();
    c2 = store_.Create(p_.company).value();
    v = store_.Create(p_.vehicle).value();
    d = store_.Create(p_.vehicle).value();
    ASSERT_TRUE(store_.SetAttr(v, "Color", Value::Str("Red")).ok());
    ASSERT_TRUE(store_.SetAttr(v, "manufactured-by", Value::Ref(c1)).ok());
  });
  const Object* pinned = nullptr;
  At(1, [&] { pinned = store_.Get(v).value(); });

  // Commits 2..5 while the reader stays pinned at 1: each is followed by
  // a reclaim, with the pin holding the horizon at 1.
  At(2, [&] {
    ASSERT_TRUE(store_.SetAttr(v, "Color", Value::Str("Blue")).ok());
  });
  store_.ReclaimBelow(1);
  At(3, [&] {
    ASSERT_TRUE(store_.SetAttr(v, "manufactured-by", Value::Ref(c2)).ok());
  });
  store_.ReclaimBelow(1);
  At(4, [&] { ASSERT_TRUE(store_.Delete(d).ok()); });
  store_.ReclaimBelow(1);
  At(5, [&] {
    ASSERT_TRUE(store_.SetAttr(v, "Color", Value::Str("Gray")).ok());
  });
  store_.ReclaimBelow(1);

  // The pinned reader still sees epoch 1 everywhere.
  EXPECT_EQ(pinned->FindAttr("Color")->AsString(), "Red");
  At(1, [&] {
    EXPECT_EQ(store_.Get(v).value()->FindAttr("Color")->AsString(), "Red");
    EXPECT_EQ(store_.ExtentOf(p_.vehicle), (std::vector<Oid>{v, d}));
    EXPECT_EQ(store_.ReferrersOf(c1, "manufactured-by"),
              std::vector<Oid>{v});
    EXPECT_TRUE(store_.ReferrersOf(c2, "manufactured-by").empty());
    EXPECT_TRUE(store_.Exists(d));
  });
  // Epoch 5 sees every commit.
  At(5, [&] {
    EXPECT_EQ(store_.Get(v).value()->FindAttr("Color")->AsString(), "Gray");
    EXPECT_EQ(store_.ExtentOf(p_.vehicle), std::vector<Oid>{v});
    EXPECT_TRUE(store_.ReferrersOf(c1, "manufactured-by").empty());
    EXPECT_EQ(store_.ReferrersOf(c2, "manufactured-by"),
              std::vector<Oid>{v});
  });
  EXPECT_GT(store_.versioned_garbage_count(), 0u);
}

TEST_F(ObjectStoreReclaimTest, GarbageDrainsToZeroOnceThePinIsGone) {
  std::vector<Oid> vehicles;
  Oid c1 = kInvalidOid, c2 = kInvalidOid;
  At(1, [&] {
    c1 = store_.Create(p_.company).value();
    c2 = store_.Create(p_.company).value();
    for (int i = 0; i < 10; ++i) {
      const Oid v = store_.Create(p_.vehicle).value();
      ASSERT_TRUE(store_.SetAttr(v, "manufactured-by", Value::Ref(c1)).ok());
      vehicles.push_back(v);
    }
  });
  // Pinned at 1: churn every vehicle, re-point half, delete the odd ones.
  uint64_t epoch = 2;
  for (size_t i = 0; i < vehicles.size(); ++i, ++epoch) {
    At(epoch, [&] {
      ASSERT_TRUE(
          store_.SetAttr(vehicles[i], "Mileage", Value::Int(10 * i)).ok());
      if (i % 2 == 0) {
        ASSERT_TRUE(store_
                        .SetAttr(vehicles[i], "manufactured-by",
                                 Value::Ref(c2))
                        .ok());
      } else {
        ASSERT_TRUE(store_.Delete(vehicles[i]).ok());
      }
    });
    store_.ReclaimBelow(1);
  }
  EXPECT_GT(store_.versioned_garbage_count(), 0u);
  EXPECT_GT(store_.retired_count(), 0u);

  // The pin drains: the horizon jumps to the newest epoch.
  store_.ReclaimBelow(epoch - 1);
  EXPECT_EQ(store_.versioned_garbage_count(), 0u);
  EXPECT_EQ(store_.retired_count(), 0u);
  At(epoch - 1, [&] {
    std::vector<Oid> even;
    for (size_t i = 0; i < vehicles.size(); i += 2) {
      even.push_back(vehicles[i]);
    }
    // Extent compaction keeps creation order.
    EXPECT_EQ(store_.ExtentOf(p_.vehicle), even);
    EXPECT_EQ(store_.ReferrersOf(c2, "manufactured-by"), even);
    EXPECT_TRUE(store_.ReferrersOf(c1, "manufactured-by").empty());
  });
}

TEST_F(ObjectStoreReclaimTest, TombstoneIsErasedOnceTheHorizonPassesIt) {
  Oid v = kInvalidOid;
  At(1, [&] { v = store_.Create(p_.vehicle).value(); });
  At(2, [&] { ASSERT_TRUE(store_.Delete(v).ok()); });

  store_.ReclaimBelow(1);  // A reader at 1 still needs the live revision.
  At(1, [&] { EXPECT_TRUE(store_.Exists(v)); });
  At(2, [&] { EXPECT_FALSE(store_.Exists(v)); });
  // The superseded revision, the tombstone and the dead extent interval.
  EXPECT_EQ(store_.versioned_garbage_count(), 3u);

  store_.ReclaimBelow(2);  // The tombstone is the horizon state: erased.
  EXPECT_EQ(store_.versioned_garbage_count(), 0u);
  At(1, [&] { EXPECT_TRUE(store_.Get(v).status().IsNotFound()); });
  EXPECT_TRUE(store_.ExtentOf(p_.vehicle).empty());
}

TEST_F(ObjectStoreReclaimTest, ReclaimVisitsOnlyWhatWasRetired) {
  // The same ten commits against a small and a large store: one reclaim
  // visits exactly the retired items, whatever the store's size.
  auto run = [&](int population) {
    ObjectStore store(&p_.schema);
    std::vector<Oid> vehicles;
    Oid c1 = kInvalidOid, c2 = kInvalidOid;
    At(1, [&] {
      c1 = store.Create(p_.company).value();
      c2 = store.Create(p_.company).value();
      for (int i = 0; i < population; ++i) {
        const Oid v = store.Create(p_.vehicle).value();
        EXPECT_TRUE(store.SetAttr(v, "Mileage", Value::Int(i)).ok());
        EXPECT_TRUE(
            store.SetAttr(v, "manufactured-by", Value::Ref(c1)).ok());
        vehicles.push_back(v);
      }
    });
    store.ReclaimBelow(1);
    EXPECT_EQ(store.retired_count(), 0u);
    for (uint64_t w = 2; w < 12; ++w) {
      At(w, [&] {
        const Oid v = vehicles[w];
        EXPECT_TRUE(store.SetAttr(v, "Mileage", Value::Int(-1)).ok());
        if (w % 3 == 0) {
          EXPECT_TRUE(
              store.SetAttr(v, "manufactured-by", Value::Ref(c2)).ok());
        }
        if (w % 5 == 0) {
          EXPECT_TRUE(store.Delete(v).ok());
        }
      });
    }
    const size_t retired = store.retired_count();
    EXPECT_EQ(store.ReclaimBelow(11), retired);
    EXPECT_EQ(store.retired_count(), 0u);
    EXPECT_EQ(store.versioned_garbage_count(), 0u);
    return retired;
  };
  const size_t small = run(20);
  const size_t large = run(5000);
  // 10 chains grew; c1's referrer list lost an interval in 5 epochs (3
  // re-points, 2 deletes); 2 extent intervals died.
  EXPECT_EQ(small, 17u);
  EXPECT_EQ(large, small);
}

TEST(ValueTest, OrderPreservingIntEncoding) {
  const int64_t values[] = {INT64_MIN, -5, -1, 0, 1, 42, INT64_MAX};
  std::string prev;
  for (const int64_t v : values) {
    std::string enc;
    Value::Int(v).AppendOrderPreserving(&enc);
    if (!prev.empty()) {
      EXPECT_TRUE(Slice(prev) < Slice(enc)) << v;
    }
    prev = enc;
  }
}

TEST(ValueTest, EqualityAndDebug) {
  EXPECT_EQ(Value::Int(5), Value::Int(5));
  EXPECT_FALSE(Value::Int(5) == Value::Int(6));
  EXPECT_FALSE(Value::Int(5) == Value::Str("5"));
  EXPECT_EQ(Value::Str("x"), Value::Str("x"));
  EXPECT_EQ(Value::Ref(3), Value::Ref(3));
  EXPECT_EQ(Value::RefSet({1, 2}), Value::RefSet({1, 2}));
  EXPECT_EQ(Value().DebugString(), "null");
  EXPECT_EQ(Value::Int(7).DebugString(), "7");
  EXPECT_EQ(Value::Str("a").DebugString(), "\"a\"");
  EXPECT_EQ(Value::RefSet({1, 2}).DebugString(), "refs(1,2)");
}

}  // namespace
}  // namespace uindex
