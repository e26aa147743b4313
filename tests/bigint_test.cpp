#include <gtest/gtest.h>

#include "bigint/bigint.hpp"
#include "io/memory.hpp"

namespace dpn::bigint {
namespace {

using I128 = __int128;

BigInt from_i128(I128 value) {
  const bool negative = value < 0;
  unsigned __int128 magnitude =
      negative ? static_cast<unsigned __int128>(-(value + 1)) + 1
               : static_cast<unsigned __int128>(value);
  BigInt out;
  // Compose from 62-bit chunks to stay inside int64 constructor range.
  BigInt shift{1};
  while (magnitude != 0) {
    out += shift * BigInt{static_cast<std::int64_t>(magnitude & 0x3fffffffffffffffULL)};
    magnitude >>= 62;
    shift *= BigInt{1} << 62;
  }
  return negative ? -out : out;
}

I128 to_i128(const BigInt& value) {
  I128 out = 0;
  for (std::size_t i = value.limbs().size(); i-- > 0;) {
    out = (out << 32) | value.limbs()[i];
  }
  return value.is_negative() ? -out : out;
}

TEST(BigInt, ZeroBasics) {
  BigInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(zero.is_negative());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_decimal(), "0");
  EXPECT_EQ(zero.to_i64(), 0);
  EXPECT_EQ(zero, BigInt{0});
  EXPECT_EQ(-zero, zero);
}

TEST(BigInt, Int64RoundTrip) {
  for (const std::int64_t v :
       {0L, 1L, -1L, 42L, -4242L, INT64_MAX, INT64_MIN, INT64_MAX - 1,
        INT64_MIN + 1}) {
    EXPECT_EQ(BigInt{v}.to_i64(), v) << v;
  }
}

TEST(BigInt, U64Conversion) {
  BigInt big = BigInt{1} << 64;
  EXPECT_THROW(big.to_u64(), UsageError);
  EXPECT_EQ((big - BigInt{1}).to_u64(), ~0ULL);
  EXPECT_THROW(BigInt{-1}.to_u64(), UsageError);
}

TEST(BigInt, DecimalRoundTrip) {
  for (const std::string text :
       {"0", "1", "-1", "999999999999999999999999999999",
        "-123456789012345678901234567890123456789",
        "340282366920938463463374607431768211456"}) {
    EXPECT_EQ(BigInt::from_decimal(text).to_decimal(), text);
  }
}

TEST(BigInt, HexRoundTrip) {
  const BigInt v = BigInt::from_hex("0xdeadbeefcafebabe0123456789");
  EXPECT_EQ(v.to_hex(), "0xdeadbeefcafebabe0123456789");
  EXPECT_EQ(BigInt::from_hex(v.to_hex()), v);
  EXPECT_EQ(BigInt::from_hex("-0xff").to_i64(), -255);
  EXPECT_EQ(BigInt{}.to_hex(), "0x0");
}

TEST(BigInt, BadLiteralsThrow) {
  EXPECT_THROW(BigInt::from_decimal(""), UsageError);
  EXPECT_THROW(BigInt::from_decimal("12a"), UsageError);
  EXPECT_THROW(BigInt::from_hex("0x"), UsageError);
  EXPECT_THROW(BigInt::from_hex("0xg"), UsageError);
}

TEST(BigInt, ComparisonOrdering) {
  const BigInt a{-10}, b{-2}, c{0}, d{3}, e{300};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
  EXPECT_LT(d, e);
  EXPECT_GT(e, a);
  EXPECT_EQ(d, BigInt{3});
  EXPECT_LE(d, BigInt{3});
  const BigInt big = BigInt{1} << 100;
  EXPECT_LT(e, big);
  EXPECT_LT(-big, a);
}

TEST(BigInt, ShiftRoundTrip) {
  const BigInt v = BigInt::from_decimal("12345678901234567890");
  for (const std::size_t bits : {1u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ((v << bits) >> bits, v) << bits;
  }
  EXPECT_EQ((BigInt{1} << 128).bit_length(), 129u);
  EXPECT_EQ(BigInt{5} >> 10, BigInt{0});
}

TEST(BigInt, BitAccess) {
  const BigInt v = BigInt::from_hex("0x8000000000000001");
  EXPECT_TRUE(v.bit(0));
  EXPECT_FALSE(v.bit(1));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(64));
  EXPECT_EQ(v.bit_length(), 64u);
}

/// Oracle sweep: random 62-bit operands, all operators vs __int128.
class BigIntOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigIntOracle, MatchesInt128) {
  Xoshiro256 rng{GetParam()};
  for (int i = 0; i < 500; ++i) {
    const auto raw_a = static_cast<std::int64_t>(rng.next() >> 2);
    const auto raw_b = static_cast<std::int64_t>(rng.next() >> 2);
    const std::int64_t sa = (rng.next() & 1) ? -raw_a : raw_a;
    const std::int64_t sb = (rng.next() & 1) ? -raw_b : raw_b;
    const BigInt a = from_i128(sa);
    const BigInt b = from_i128(sb);
    EXPECT_EQ(to_i128(a + b), I128{sa} + I128{sb});
    EXPECT_EQ(to_i128(a - b), I128{sa} - I128{sb});
    EXPECT_EQ(to_i128(a * b), I128{sa} * I128{sb});
    if (sb != 0) {
      EXPECT_EQ(to_i128(a / b), I128{sa} / I128{sb});
      EXPECT_EQ(to_i128(a % b), I128{sa} % I128{sb});
    }
    EXPECT_EQ(a < b, sa < sb);
    EXPECT_EQ(a == b, sa == sb);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntOracle,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Algebraic identities at sizes far beyond 128 bits (exercises Karatsuba
/// and the full Knuth-D path).
class BigIntAlgebra : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BigIntAlgebra, DivModReconstruction) {
  const std::size_t bits = GetParam();
  Xoshiro256 rng{bits * 1000003};
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::random_bits(rng, bits);
    BigInt b = BigInt::random_bits(rng, bits / 2 + 1);
    if (rng.next() & 1) a = -a;
    if (rng.next() & 1) b = -b;
    const auto [q, r] = BigInt::divmod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.abs(), b.abs());
    if (!r.is_zero()) {
      EXPECT_EQ(r.is_negative(), a.is_negative());
    }
  }
}

TEST_P(BigIntAlgebra, MulCommutesAndDistributes) {
  const std::size_t bits = GetParam();
  Xoshiro256 rng{bits * 31337};
  for (int i = 0; i < 10; ++i) {
    const BigInt a = BigInt::random_bits(rng, bits);
    const BigInt b = BigInt::random_bits(rng, bits);
    const BigInt c = BigInt::random_bits(rng, bits / 3 + 1);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ((a + b) - b, a);
  }
}

TEST_P(BigIntAlgebra, IsqrtBrackets) {
  const std::size_t bits = GetParam();
  Xoshiro256 rng{bits * 99991};
  for (int i = 0; i < 10; ++i) {
    const BigInt n = BigInt::random_bits(rng, bits);
    const BigInt r = BigInt::isqrt(n);
    EXPECT_LE(r * r, n);
    EXPECT_GT((r + BigInt{1}) * (r + BigInt{1}), n);
  }
}

TEST_P(BigIntAlgebra, PerfectSquareDetection) {
  const std::size_t bits = GetParam();
  Xoshiro256 rng{bits * 7};
  for (int i = 0; i < 10; ++i) {
    const BigInt r = BigInt::random_bits(rng, bits / 2 + 2);
    const BigInt square = r * r;
    BigInt root;
    EXPECT_TRUE(BigInt::perfect_square(square, &root));
    EXPECT_EQ(root, r);
    EXPECT_FALSE(BigInt::perfect_square(square + BigInt{1}, nullptr) &&
                 BigInt::perfect_square(square + BigInt{2}, nullptr) &&
                 BigInt::perfect_square(square + BigInt{3}, nullptr));
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, BigIntAlgebra,
                         ::testing::Values(64, 96, 128, 256, 512, 1024, 2048,
                                           4096));

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt{1} / BigInt{0}, UsageError);
  EXPECT_THROW(BigInt::divmod(BigInt{1}, BigInt{}), UsageError);
}

TEST(BigInt, KnuthDAddBackCase) {
  // Exercise the rare D6 add-back path with a crafted dividend/divisor
  // (top limbs equal, second limbs maximal).
  const BigInt u = BigInt::from_hex("0x80000000fffffffe00000000");
  const BigInt v = BigInt::from_hex("0x80000000ffffffff");
  const auto [q, r] = BigInt::divmod(u, v);
  EXPECT_EQ(q * v + r, u);
  EXPECT_LT(r, v);
}

TEST(BigInt, PowSmallCases) {
  EXPECT_EQ(BigInt::pow(BigInt{2}, 10).to_i64(), 1024);
  EXPECT_EQ(BigInt::pow(BigInt{7}, 0).to_i64(), 1);
  EXPECT_EQ(BigInt::pow(BigInt{-3}, 3).to_i64(), -27);
  EXPECT_EQ(BigInt::pow(BigInt{10}, 30),
            BigInt::from_decimal("1000000000000000000000000000000"));
}

TEST(BigInt, ModPowMatchesNaive) {
  Xoshiro256 rng{77};
  for (int i = 0; i < 50; ++i) {
    const std::int64_t base = static_cast<std::int64_t>(rng.below(1000));
    const std::uint64_t exp = rng.below(20);
    const std::int64_t mod = 1 + static_cast<std::int64_t>(rng.below(999));
    std::int64_t expected = 1 % mod;
    for (std::uint64_t e = 0; e < exp; ++e) expected = expected * base % mod;
    EXPECT_EQ(BigInt::mod_pow(BigInt{base}, BigInt{(std::int64_t)exp},
                              BigInt{mod})
                  .to_i64(),
              expected);
  }
}

TEST(BigInt, ModPowFermat) {
  // 2^(p-1) = 1 mod p for prime p.
  const BigInt p = BigInt::from_decimal("1000000007");
  EXPECT_EQ(BigInt::mod_pow(BigInt{2}, p - BigInt{1}, p), BigInt{1});
}

TEST(BigInt, GcdProperties) {
  EXPECT_EQ(BigInt::gcd(BigInt{12}, BigInt{18}).to_i64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt{-12}, BigInt{18}).to_i64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt{0}, BigInt{5}).to_i64(), 5);
  const BigInt a = BigInt::from_decimal("123456789123456789");
  EXPECT_EQ(BigInt::gcd(a * BigInt{30}, a * BigInt{42}), a * BigInt{6});
}

TEST(BigInt, PrimalitySmallNumbers) {
  Xoshiro256 rng{5};
  const std::vector<int> primes{2,  3,  5,  7,  11, 13, 17, 19,
                                23, 29, 31, 37, 41, 97, 101};
  for (const int p : primes) {
    EXPECT_TRUE(BigInt::is_probable_prime(BigInt{p}, rng)) << p;
  }
  for (const int c : {0, 1, 4, 6, 9, 15, 21, 25, 49, 91, 100}) {
    EXPECT_FALSE(BigInt::is_probable_prime(BigInt{c}, rng)) << c;
  }
}

TEST(BigInt, PrimalityKnownLargePrime) {
  Xoshiro256 rng{6};
  // 2^127 - 1 is a Mersenne prime; 2^128 + 1 is composite (Fermat F7 lore:
  // actually 2^128+1 = 59649589127497217 * ...; known composite).
  const BigInt mersenne = (BigInt{1} << 127) - BigInt{1};
  EXPECT_TRUE(BigInt::is_probable_prime(mersenne, rng));
  const BigInt carmichael{561};  // classic Carmichael number
  EXPECT_FALSE(BigInt::is_probable_prime(carmichael, rng));
}

TEST(BigInt, RandomPrimeHasRequestedSize) {
  Xoshiro256 rng{8};
  for (const std::size_t bits : {16u, 48u, 128u}) {
    const BigInt p = BigInt::random_prime(rng, bits);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(BigInt::is_probable_prime(p, rng));
  }
}

TEST(BigInt, RandomBelowUniformRange) {
  Xoshiro256 rng{10};
  const BigInt bound{1000};
  for (int i = 0; i < 200; ++i) {
    const BigInt v = BigInt::random_below(rng, bound);
    EXPECT_GE(v, BigInt{0});
    EXPECT_LT(v, bound);
  }
}

TEST(BigInt, WireRoundTrip) {
  Xoshiro256 rng{12};
  auto sink = std::make_shared<io::MemoryOutputStream>();
  io::DataOutputStream out{*sink};
  std::vector<BigInt> values;
  for (const std::size_t bits : {0u, 1u, 33u, 512u, 1024u}) {
    BigInt v = bits == 0 ? BigInt{} : BigInt::random_bits(rng, bits);
    if (bits == 33) v = -v;
    values.push_back(v);
    v.write_to(out);
  }
  io::MemoryInputStream source{sink->take()};
  io::DataInputStream in{source};
  for (const BigInt& expected : values) {
    EXPECT_EQ(BigInt::read_from(in), expected);
  }
}

TEST(BigInt, StreamInsertion) {
  std::ostringstream os;
  os << BigInt::from_decimal("-12345");
  EXPECT_EQ(os.str(), "-12345");
}

}  // namespace
}  // namespace dpn::bigint
