#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "value/value.hpp"

namespace disco {
namespace {

Value person(std::string name, int64_t salary) {
  return Value::strct({{"name", Value::string(std::move(name))},
                       {"salary", Value::integer(salary)}});
}

TEST(Value, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.kind(), ValueKind::Null);
}

TEST(Value, ScalarAccessors) {
  EXPECT_EQ(Value::boolean(true).as_bool(), true);
  EXPECT_EQ(Value::integer(-7).as_int(), -7);
  EXPECT_EQ(Value::real(2.5).as_double(), 2.5);
  EXPECT_EQ(Value::string("hi").as_string(), "hi");
}

TEST(Value, IntWidensToDouble) {
  EXPECT_EQ(Value::integer(3).as_double(), 3.0);
}

TEST(Value, WrongAccessorThrows) {
  EXPECT_THROW(Value::integer(1).as_string(), ExecutionError);
  EXPECT_THROW(Value::string("x").as_int(), ExecutionError);
  EXPECT_THROW(Value::real(1.0).as_bool(), ExecutionError);
  EXPECT_THROW(Value::null().items(), ExecutionError);
  EXPECT_THROW(Value::integer(1).fields(), ExecutionError);
}

TEST(Value, NumericEqualityAcrossKinds) {
  EXPECT_EQ(Value::integer(1), Value::real(1.0));
  EXPECT_NE(Value::integer(1), Value::real(1.5));
}

TEST(Value, BagEqualityIsMultiset) {
  Value a = Value::bag({Value::integer(1), Value::integer(2),
                        Value::integer(1)});
  Value b = Value::bag({Value::integer(2), Value::integer(1),
                        Value::integer(1)});
  Value c = Value::bag({Value::integer(1), Value::integer(2)});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // multiplicity matters
}

TEST(Value, SetRemovesDuplicatesAndNormalizesOrder) {
  Value s = Value::set({Value::integer(2), Value::integer(1),
                        Value::integer(2)});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s, Value::set({Value::integer(1), Value::integer(2)}));
}

TEST(Value, ListIsPositional) {
  Value a = Value::list({Value::integer(1), Value::integer(2)});
  Value b = Value::list({Value::integer(2), Value::integer(1)});
  EXPECT_NE(a, b);
}

TEST(Value, BagAndSetAreDistinctKinds) {
  Value b = Value::bag({Value::integer(1)});
  Value s = Value::set({Value::integer(1)});
  EXPECT_NE(b, s);
}

TEST(Value, StructFieldAccess) {
  Value p = person("Mary", 200);
  EXPECT_EQ(p.field("name").as_string(), "Mary");
  EXPECT_EQ(p.field("salary").as_int(), 200);
  EXPECT_EQ(p.find_field("missing"), nullptr);
  EXPECT_THROW(p.field("missing"), ExecutionError);
}

TEST(Value, StructPreservesFieldOrder) {
  Value p = person("Mary", 200);
  ASSERT_EQ(p.fields().size(), 2u);
  EXPECT_EQ(p.fields()[0].first, "name");
  EXPECT_EQ(p.fields()[1].first, "salary");
}

TEST(Value, StructEqualityIsFieldwise) {
  EXPECT_EQ(person("Mary", 200), person("Mary", 200));
  EXPECT_NE(person("Mary", 200), person("Mary", 201));
  EXPECT_NE(person("Mary", 200), person("Sam", 200));
}

TEST(Value, CompareIsTotalOrder) {
  std::vector<Value> values = {
      Value::null(),
      Value::boolean(false),
      Value::boolean(true),
      Value::integer(-1),
      Value::integer(3),
      Value::real(3.5),
      Value::string("a"),
      Value::string("b"),
      Value::bag({Value::integer(1)}),
      Value::set({Value::integer(1)}),
      Value::list({Value::integer(1)}),
      person("Mary", 200),
  };
  for (const Value& a : values) {
    EXPECT_EQ(Value::compare(a, a), 0);
    for (const Value& b : values) {
      int ab = Value::compare(a, b);
      int ba = Value::compare(b, a);
      EXPECT_EQ(ab, -ba) << a.to_oql() << " vs " << b.to_oql();
      for (const Value& c : values) {
        // Transitivity spot check: a<=b and b<=c imply a<=c.
        if (ab <= 0 && Value::compare(b, c) <= 0) {
          EXPECT_LE(Value::compare(a, c), 0);
        }
      }
    }
  }
}

TEST(Value, ScalarsRankBelowCollectionsAndStructs) {
  EXPECT_LT(Value::compare(Value::string("zz"), Value::strct({})), 0);
  EXPECT_LT(Value::compare(Value::string("zz"), Value::bag({})), 0);
  EXPECT_LT(Value::compare(Value::integer(7), Value::bag({})), 0);
}

TEST(Value, ZeroEqualsNegativeZeroAndHashesAlike) {
  EXPECT_EQ(Value::integer(0), Value::real(-0.0));
  EXPECT_EQ(Value::integer(0).hash(), Value::real(-0.0).hash());
  EXPECT_EQ(Value::real(0.0).hash(), Value::real(-0.0).hash());
}

TEST(Value, HashConsistentWithEquality) {
  EXPECT_EQ(Value::integer(1).hash(), Value::real(1.0).hash());
  Value a = Value::bag({Value::integer(1), Value::integer(2)});
  Value b = Value::bag({Value::integer(2), Value::integer(1)});
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(person("Mary", 200).hash(), person("Mary", 200).hash());
}

TEST(Value, ToOqlScalars) {
  EXPECT_EQ(Value::null().to_oql(), "nil");
  EXPECT_EQ(Value::boolean(true).to_oql(), "true");
  EXPECT_EQ(Value::integer(42).to_oql(), "42");
  EXPECT_EQ(Value::real(2.0).to_oql(), "2.0");
  EXPECT_EQ(Value::string("Mary").to_oql(), "\"Mary\"");
}

TEST(Value, ToOqlCollections) {
  Value bag = Value::bag({Value::string("Mary"), Value::string("Sam")});
  EXPECT_EQ(bag.to_oql(), "bag(\"Mary\", \"Sam\")");
  EXPECT_EQ(Value::bag({}).to_oql(), "bag()");
  EXPECT_EQ(Value::list({Value::integer(1)}).to_oql(), "list(1)");
}

TEST(Value, ToOqlStruct) {
  EXPECT_EQ(person("Mary", 200).to_oql(),
            "struct(name: \"Mary\", salary: 200)");
}

TEST(Value, UnionOfBagsIsBagWithMultiplicity) {
  // §1.3: "In DISCO, the union of two bags is a bag."
  Value a = Value::bag({Value::integer(1)});
  Value b = Value::bag({Value::integer(1), Value::integer(2)});
  Value u = Value::union_with(a, b);
  EXPECT_EQ(u.kind(), ValueKind::Bag);
  EXPECT_EQ(u.size(), 3u);
}

TEST(Value, UnionOfSetsIsSet) {
  Value a = Value::set({Value::integer(1)});
  Value b = Value::set({Value::integer(1), Value::integer(2)});
  Value u = Value::union_with(a, b);
  EXPECT_EQ(u.kind(), ValueKind::Set);
  EXPECT_EQ(u.size(), 2u);
}

TEST(Value, UnionRejectsScalars) {
  EXPECT_THROW(Value::union_with(Value::integer(1), Value::bag({})),
               ExecutionError);
}

TEST(Value, MakeRowBag) {
  Value rows = make_row_bag({"name", "salary"},
                            {{Value::string("Mary"), Value::integer(200)},
                             {Value::string("Sam"), Value::integer(50)}});
  EXPECT_EQ(rows.kind(), ValueKind::Bag);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows.items()[0], person("Mary", 200));
}

TEST(Value, MakeRowBagRejectsArityMismatch) {
  EXPECT_THROW(make_row_bag({"a", "b"}, {{Value::integer(1)}}),
               InternalError);
}

TEST(Value, CopyIsShallowAndCheap) {
  Value big = Value::bag(std::vector<Value>(1000, Value::integer(7)));
  Value copy = big;  // shared payload
  EXPECT_EQ(copy, big);
  EXPECT_EQ(copy.items().data(), big.items().data());
}

// -- deep_size: the cache's byte-budget currency ----------------------------
//
// These pin the accounting identities the result cache depends on. The
// key one: a short (SSO) string weighs exactly as much as an int — its
// text lives inside the object, and counting capacity() on top of that
// double-counted every short string.

TEST(ValueDeepSize, ScalarsWeighSizeofValue) {
  EXPECT_EQ(Value::null().deep_size(), sizeof(Value));
  EXPECT_EQ(Value::boolean(true).deep_size(), sizeof(Value));
  EXPECT_EQ(Value::integer(42).deep_size(), sizeof(Value));
  EXPECT_EQ(Value::real(2.5).deep_size(), sizeof(Value));
}

TEST(ValueDeepSize, ShortStringEqualsIntLongStringAddsItsBuffer) {
  // Small-string text is inside the object: no extra bytes.
  EXPECT_EQ(Value::string("hi").deep_size(), sizeof(Value));
  EXPECT_EQ(Value::string("").deep_size(), sizeof(Value));
  // A spilled string adds its heap buffer (capacity + NUL), nothing
  // else.
  const std::string long_text(100, 'x');
  const Value long_string = Value::string(long_text);
  EXPECT_EQ(long_string.deep_size(),
            sizeof(Value) + long_string.as_string().capacity() + 1);
  EXPECT_GT(long_string.deep_size(), sizeof(Value) + 100);
}

TEST(ValueDeepSize, CollectionsAddHeaderPlusItems) {
  const Value empty = Value::bag({});
  const size_t header = empty.deep_size();
  EXPECT_GT(header, sizeof(Value));  // the shared Collection block
  // Each int item adds exactly one Value.
  EXPECT_EQ(Value::bag({Value::integer(1), Value::integer(2)}).deep_size(),
            header + 2 * sizeof(Value));
  // Bag of short strings weighs the same as a bag of ints.
  EXPECT_EQ(
      Value::bag({Value::string("a"), Value::string("b")}).deep_size(),
      Value::bag({Value::integer(1), Value::integer(2)}).deep_size());
}

TEST(ValueDeepSize, StructsCountFieldPairsOnce) {
  const Value empty = Value::strct({});
  const size_t header = empty.deep_size();
  // One short-named int field: the pair is one string object plus one
  // Value, no heap spill for either.
  const Value one = Value::strct({{"a", Value::integer(1)}});
  EXPECT_EQ(one.deep_size(), header + sizeof(std::string) + sizeof(Value));
  // A long field name adds its spilled buffer on top.
  const std::string long_name(80, 'n');
  const Value named = Value::strct({{long_name, Value::integer(1)}});
  EXPECT_GT(named.deep_size(), one.deep_size() + 80);
}

TEST(ValueDeepSize, NestedStructureAddsUpExactly) {
  // struct(inner: bag(1, "hi")) — every layer accounted once.
  const Value nested = Value::strct(
      {{"inner", Value::bag({Value::integer(1), Value::string("hi")})}});
  const size_t struct_header = Value::strct({}).deep_size();
  const size_t bag_header = Value::bag({}).deep_size();
  EXPECT_EQ(nested.deep_size(), struct_header + sizeof(std::string) +
                                    bag_header + 2 * sizeof(Value));
}

TEST(ValueDeepSize, SharedPayloadsCountAtEveryReference) {
  // deep_size is an upper bound under structural sharing: two references
  // to one payload count twice (documented contract, used as a budget).
  const Value inner = Value::bag({Value::integer(1)});
  const Value twice = Value::bag({inner, inner});
  EXPECT_EQ(twice.deep_size(),
            Value::bag({}).deep_size() + 2 * inner.deep_size());
}

TEST(ValueNaN, TotalOrderPlacesNaNAfterEveryNumber) {
  // compare() is a total order even over NaN: NaN == NaN and NaN sorts
  // after every number, including +inf (value.cpp compare_numbers).
  const Value nan = Value::real(std::nan(""));
  const Value inf = Value::real(std::numeric_limits<double>::infinity());
  EXPECT_EQ(Value::compare(nan, nan), 0);
  EXPECT_GT(Value::compare(nan, inf), 0);
  EXPECT_LT(Value::compare(inf, nan), 0);
  EXPECT_GT(Value::compare(nan, Value::real(1e308)), 0);
  EXPECT_GT(Value::compare(nan, Value::integer(42)), 0);
  EXPECT_LT(Value::compare(Value::real(-1.0), nan), 0);
  // IEEE would say NaN != NaN; the store's order says equal, so indexes
  // and sets treat NaN as one key.
  EXPECT_EQ(nan, Value::real(std::nan("")));
}

TEST(ValueNaN, HashConsistentWithEquality) {
  // Different NaN bit patterns (quiet, signalling-ish payloads, negative)
  // compare equal, so they must hash equal too.
  const Value a = Value::real(std::numeric_limits<double>::quiet_NaN());
  const Value b = Value::real(-std::numeric_limits<double>::quiet_NaN());
  const Value c = Value::real(std::nan("0x12345"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.hash(), c.hash());
}

TEST(ValueNaN, SetDeduplicatesNaN) {
  const Value s = Value::set({Value::real(std::nan("")), Value::integer(1),
                              Value::real(-std::numeric_limits<double>::quiet_NaN())});
  EXPECT_EQ(s.size(), 2u);
}

TEST(ValueNaN, SortsDeterministically) {
  // Set normalization orders members; NaN lands after every number, and
  // repeated normalization is stable (no compare(x, NaN) == 0 ~ x trap).
  const Value s = Value::set({Value::real(std::nan("")), Value::integer(7),
                              Value::real(std::numeric_limits<double>::infinity()),
                              Value::real(-2.5)});
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.items()[0], Value::real(-2.5));
  EXPECT_EQ(s.items()[1], Value::integer(7));
  EXPECT_EQ(s.items()[2],
            Value::real(std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(std::isnan(s.items()[3].as_double()));
}

// 2^53 is where doubles stop holding every integer: 2^53 + 1 rounds to
// 2^53 as a double, so comparing through double would merge them.
constexpr int64_t kTwoTo53 = int64_t{1} << 53;

TEST(ValueExactNumbers, IntegersBeyondTwoTo53StayDistinct) {
  const Value below = Value::integer(kTwoTo53 - 1);
  const Value at = Value::integer(kTwoTo53);
  const Value above = Value::integer(kTwoTo53 + 1);
  EXPECT_GT(Value::compare(above, at), 0);
  EXPECT_LT(Value::compare(at, above), 0);
  EXPECT_LT(Value::compare(below, at), 0);
  EXPECT_NE(above, at);
  EXPECT_EQ(above, Value::integer(kTwoTo53 + 1));
  EXPECT_LT(Value::compare(Value::integer(INT64_MIN),
                           Value::integer(INT64_MIN + 1)), 0);
  EXPECT_GT(Value::compare(Value::integer(INT64_MAX),
                           Value::integer(INT64_MAX - 1)), 0);
  // Equal values still hash alike; distinct ones may share a hash.
  EXPECT_EQ(above.hash(), Value::integer(kTwoTo53 + 1).hash());
}

TEST(ValueExactNumbers, SetKeepsNeighboursBeyondTwoTo53) {
  const Value s = Value::set({Value::integer(kTwoTo53 + 1),
                              Value::integer(kTwoTo53),
                              Value::integer(kTwoTo53 - 1),
                              Value::integer(kTwoTo53 + 1)});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.items()[0].as_int(), kTwoTo53 - 1);
  EXPECT_EQ(s.items()[1].as_int(), kTwoTo53);
  EXPECT_EQ(s.items()[2].as_int(), kTwoTo53 + 1);
}

TEST(ValueExactNumbers, IntMeetsDoubleByTheNumbersTheyDenote) {
  const Value two53 = Value::real(static_cast<double>(kTwoTo53));
  EXPECT_EQ(Value::compare(Value::integer(kTwoTo53), two53), 0);
  EXPECT_EQ(Value::integer(kTwoTo53), two53);
  EXPECT_EQ(Value::integer(kTwoTo53).hash(), two53.hash());
  EXPECT_GT(Value::compare(Value::integer(kTwoTo53 + 1), two53), 0);
  EXPECT_LT(Value::compare(two53, Value::integer(kTwoTo53 + 1)), 0);
  EXPECT_LT(Value::compare(Value::integer(kTwoTo53 - 1), two53), 0);
  // Fractions and the edges of int64's range.
  EXPECT_EQ(Value::integer(1), Value::real(1.0));
  EXPECT_LT(Value::compare(Value::integer(1), Value::real(1.5)), 0);
  EXPECT_GT(Value::compare(Value::integer(-1), Value::real(-1.5)), 0);
  EXPECT_EQ(Value::compare(Value::integer(0), Value::real(-0.0)), 0);
  EXPECT_LT(Value::compare(Value::integer(INT64_MAX), Value::real(9.3e18)),
            0);  // 2^63 - 1 < 9.3e18, which int64 cannot hold
  EXPECT_GT(Value::compare(Value::integer(INT64_MIN), Value::real(-9.3e18)),
            0);
  EXPECT_EQ(Value::compare(Value::integer(INT64_MIN),
                           Value::real(-9223372036854775808.0)), 0);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_LT(Value::compare(Value::integer(INT64_MAX), Value::real(inf)), 0);
  EXPECT_GT(Value::compare(Value::integer(INT64_MIN), Value::real(-inf)), 0);
  EXPECT_LT(Value::compare(Value::integer(INT64_MAX),
                           Value::real(std::nan(""))), 0);
  EXPECT_GT(Value::compare(Value::real(std::nan("")),
                           Value::integer(INT64_MAX)), 0);
}

TEST(Value, NestedStructures) {
  Value nested = Value::strct(
      {{"inner", Value::bag({person("Mary", 200), person("Sam", 50)})}});
  EXPECT_EQ(nested.field("inner").size(), 2u);
  EXPECT_EQ(nested.field("inner").items()[1].field("name").as_string(),
            "Sam");
}

}  // namespace
}  // namespace disco
