// Validation of the from-scratch crypto substrate against published test
// vectors (FIPS 180 / RFC 4231 / RFC 8032) plus property tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/crypto/ed25519.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha2.h"
#include "src/crypto/signer.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace sdr {
namespace {

TEST(Sha1Test, Fips180Vectors) {
  EXPECT_EQ(HexEncode(Sha1::Hash("")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(HexEncode(Sha1::Hash("abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(HexEncode(Sha1::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionA) {
  Sha1 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(HexEncode(h.Final()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes data = rng.NextBytes(rng.NextBounded(300));
    Sha1 h;
    size_t pos = 0;
    while (pos < data.size()) {
      size_t n = std::min<size_t>(rng.NextBounded(64) + 1, data.size() - pos);
      h.Update(data.data() + pos, n);
      pos += n;
    }
    EXPECT_EQ(h.Final(), Sha1::Hash(data));
  }
}

TEST(Sha256Test, Fips180Vectors) {
  EXPECT_EQ(HexEncode(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HexEncode(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HexEncode(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(HexEncode(h.Final()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha512Test, Fips180Vectors) {
  EXPECT_EQ(HexEncode(Sha512::Hash("")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
  EXPECT_EQ(HexEncode(Sha512::Hash("abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
  EXPECT_EQ(HexEncode(Sha512::Hash(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512Test, DerivedRoundConstantsSpotCheck) {
  // First and last round constants, straight from FIPS 180-2.
  const uint64_t* k = Sha512RoundConstants();
  EXPECT_EQ(k[0], 0x428a2f98d728ae22ULL);
  EXPECT_EQ(k[1], 0x7137449123ef65cdULL);
  EXPECT_EQ(k[79], 0x6c44198c4a475817ULL);
}

// Feeds data[0, split), an empty chunk with a null pointer, the rest, and
// another empty chunk. An Ed25519 signature over an empty message hands
// the hash exactly such an empty chunk after a partial block.
template <typename H>
Bytes HashWithEmptyChunks(const Bytes& data, size_t split) {
  H h;
  h.Update(data.data(), split);
  h.Update(nullptr, 0);
  h.Update(data.data() + split, data.size() - split);
  h.Update(nullptr, 0);
  return h.Final();
}

// Splits straddling every padding boundary of both block sizes.
constexpr size_t kHashSplits[] = {1, 55, 56, 63, 64, 111, 112, 127, 128};

template <typename H>
void ExpectSplitsMatchVectors(
    const std::vector<std::pair<std::string, std::string>>& vectors,
    const std::string& chained_a_hex) {
  Bytes data = Rng(7).NextBytes(300);
  for (size_t split : kHashSplits) {
    EXPECT_EQ(HashWithEmptyChunks<H>(data, split), H::Hash(data)) << split;
  }
  for (const auto& [message, hex] : vectors) {
    Bytes bytes = ToBytes(message);
    EXPECT_EQ(HexEncode(HashWithEmptyChunks<H>(bytes, 0)), hex);
    for (size_t split : kHashSplits) {
      if (split <= bytes.size()) {
        EXPECT_EQ(HexEncode(HashWithEmptyChunks<H>(bytes, split)), hex)
            << split;
      }
    }
  }
  // Every message length 0..256 lands on each padding branch: the digest
  // over the concatenated digests of "a" * n matches the reference value.
  Bytes chained;
  for (size_t n = 0; n <= 256; ++n) {
    Bytes digest = H::Hash(std::string(n, 'a'));
    chained.insert(chained.end(), digest.begin(), digest.end());
  }
  EXPECT_EQ(HexEncode(H::Hash(chained)), chained_a_hex);
}

TEST(Sha1Test, EmptyChunksAndSplitsMatchVectors) {
  ExpectSplitsMatchVectors<Sha1>(
      {{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
       {"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
       {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1"}},
      "b8b0693c5305b3dcd6b89ebcf3d77583df30c861");
}

TEST(Sha256Test, EmptyChunksAndSplitsMatchVectors) {
  ExpectSplitsMatchVectors<Sha256>(
      {{"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
       {"abc",
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
       {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"}},
      "f8cb1ba7990f24485f9a571a9f3abbf38b2e611e9b4566f5aa8b0c98ad6a65ac");
}

TEST(Sha512Test, EmptyChunksAndSplitsMatchVectors) {
  ExpectSplitsMatchVectors<Sha512>(
      {{"",
        "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
        "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"},
       {"abc",
        "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
        "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"},
       {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
        "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
        "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"}},
      "ed1353a0438b89b75558cf245079f260b8fcf3885c8105a8fc8ef37dc4ab03b3"
      "5d19c591d2a311be6a4ee992b8fcd52e50acef4736a9d2a5dad76096a4c970c8");
}

TEST(HmacTest, Rfc4231Vectors) {
  // Test case 1.
  Bytes key1(20, 0x0b);
  EXPECT_EQ(HexEncode(HmacSha256(key1, ToBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Test case 2.
  EXPECT_EQ(HexEncode(HmacSha256(ToBytes("Jefe"),
                                 ToBytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashed) {
  Bytes long_key(200, 0x61);
  Bytes m = ToBytes("msg");
  // Must not crash and must differ from short-key MACs.
  Bytes mac = HmacSha256(long_key, m);
  EXPECT_EQ(mac.size(), 32u);
  EXPECT_NE(mac, HmacSha256(ToBytes("a"), m));
}

struct Rfc8032Vector {
  const char* seed_hex;
  const char* public_hex;
  const char* message_hex;
  const char* signature_hex;
};

class Ed25519VectorTest : public ::testing::TestWithParam<Rfc8032Vector> {};

// Runs a test body under both the precomputed fast path and the naive
// reference path, restoring the process-wide setting afterwards.
class FastPathGuard {
 public:
  explicit FastPathGuard(bool fast) : saved_(Ed25519FastPathEnabled()) {
    Ed25519SetFastPath(fast);
  }
  ~FastPathGuard() { Ed25519SetFastPath(saved_); }

 private:
  bool saved_;
};

TEST_P(Ed25519VectorTest, MatchesRfc8032) {
  const auto& v = GetParam();
  Bytes seed = HexDecode(v.seed_hex);
  Bytes pub = HexDecode(v.public_hex);
  Bytes msg = HexDecode(v.message_hex);
  Bytes sig = HexDecode(v.signature_hex);

  // The vectors must hold bit-for-bit through both implementations.
  for (bool fast : {true, false}) {
    FastPathGuard guard(fast);
    EXPECT_EQ(Ed25519PublicKey(seed), pub) << "fast=" << fast;
    EXPECT_EQ(Ed25519Sign(seed, msg), sig) << "fast=" << fast;
    EXPECT_TRUE(Ed25519Verify(pub, msg, sig)) << "fast=" << fast;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rfc8032, Ed25519VectorTest,
    ::testing::Values(
        Rfc8032Vector{
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            "",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
        Rfc8032Vector{
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            "72",
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
        Rfc8032Vector{
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            "af82",
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"}));

TEST(Ed25519Test, RoundTripRandomKeysAndMessages) {
  Rng rng(42);
  for (int trial = 0; trial < 8; ++trial) {
    Bytes seed = rng.NextBytes(kEd25519SeedSize);
    Bytes pub = Ed25519PublicKey(seed);
    Bytes msg = rng.NextBytes(rng.NextBounded(100));
    Bytes sig = Ed25519Sign(seed, msg);
    EXPECT_TRUE(Ed25519Verify(pub, msg, sig));
  }
}

TEST(Ed25519Test, TamperedMessageFails) {
  Rng rng(7);
  Bytes seed = rng.NextBytes(kEd25519SeedSize);
  Bytes pub = Ed25519PublicKey(seed);
  Bytes msg = ToBytes("the content version is 17");
  Bytes sig = Ed25519Sign(seed, msg);
  Bytes tampered = msg;
  tampered[4] ^= 1;
  EXPECT_FALSE(Ed25519Verify(pub, tampered, sig));
}

TEST(Ed25519Test, TamperedSignatureFails) {
  Rng rng(8);
  Bytes seed = rng.NextBytes(kEd25519SeedSize);
  Bytes pub = Ed25519PublicKey(seed);
  Bytes msg = ToBytes("pledge");
  Bytes sig = Ed25519Sign(seed, msg);
  for (size_t i = 0; i < sig.size(); i += 17) {
    Bytes bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(Ed25519Verify(pub, msg, bad)) << "byte " << i;
  }
}

TEST(Ed25519Test, WrongKeyFails) {
  Rng rng(9);
  Bytes seed1 = rng.NextBytes(kEd25519SeedSize);
  Bytes seed2 = rng.NextBytes(kEd25519SeedSize);
  Bytes msg = ToBytes("m");
  Bytes sig = Ed25519Sign(seed1, msg);
  EXPECT_FALSE(Ed25519Verify(Ed25519PublicKey(seed2), msg, sig));
}

TEST(Ed25519Test, NonCanonicalScalarRejected) {
  Rng rng(10);
  Bytes seed = rng.NextBytes(kEd25519SeedSize);
  Bytes pub = Ed25519PublicKey(seed);
  Bytes msg = ToBytes("m");
  Bytes sig = Ed25519Sign(seed, msg);
  // Force S >= L by setting high bits of the scalar half.
  Bytes bad = sig;
  bad[63] |= 0xf0;
  EXPECT_FALSE(Ed25519Verify(pub, msg, bad));
}

TEST(Ed25519Test, FastPathMatchesNaiveOnRandomInputs) {
  // The precomputed-table fixed-base multiplication and the Straus/Shamir
  // verify loop must agree with the plain double-and-add reference on
  // random scalars, both for the produced bytes and for the verdicts.
  Rng rng(20);
  for (int trial = 0; trial < 12; ++trial) {
    Bytes seed = rng.NextBytes(kEd25519SeedSize);
    Bytes msg = rng.NextBytes(rng.NextBounded(200));

    Bytes pub_fast, sig_fast, pub_naive, sig_naive;
    {
      FastPathGuard guard(true);
      pub_fast = Ed25519PublicKey(seed);
      sig_fast = Ed25519Sign(seed, msg);
    }
    {
      FastPathGuard guard(false);
      pub_naive = Ed25519PublicKey(seed);
      sig_naive = Ed25519Sign(seed, msg);
    }
    EXPECT_EQ(pub_fast, pub_naive) << "trial " << trial;
    EXPECT_EQ(sig_fast, sig_naive) << "trial " << trial;

    Bytes bad_sig = sig_fast;
    bad_sig[trial % 32] ^= 0x20;
    for (bool fast : {true, false}) {
      FastPathGuard guard(fast);
      EXPECT_TRUE(Ed25519Verify(pub_fast, msg, sig_fast))
          << "trial " << trial << " fast=" << fast;
      EXPECT_FALSE(Ed25519Verify(pub_fast, msg, bad_sig))
          << "trial " << trial << " fast=" << fast;
    }
  }
}

TEST(Ed25519Test, ExpandedKeySignsIdentically) {
  Rng rng(21);
  Bytes seed = rng.NextBytes(kEd25519SeedSize);
  Ed25519ExpandedKey key = Ed25519ExpandKey(seed);
  EXPECT_EQ(key.public_key, Ed25519PublicKey(seed));
  for (int trial = 0; trial < 4; ++trial) {
    Bytes msg = rng.NextBytes(rng.NextBounded(128));
    EXPECT_EQ(Ed25519SignExpanded(key, msg), Ed25519Sign(seed, msg));
  }
}

std::vector<Ed25519BatchItem> MakeBatch(size_t n, Rng& rng) {
  std::vector<Ed25519BatchItem> items(n);
  for (size_t i = 0; i < n; ++i) {
    Bytes seed = rng.NextBytes(kEd25519SeedSize);
    items[i].public_key = Ed25519PublicKey(seed);
    items[i].message = rng.NextBytes(64 + i);
    items[i].signature = Ed25519Sign(seed, items[i].message);
  }
  return items;
}

TEST(Ed25519BatchTest, EmptyAndSingleton) {
  Rng rng(22);
  EXPECT_TRUE(Ed25519VerifyBatch({}).empty());
  auto items = MakeBatch(1, rng);
  EXPECT_EQ(Ed25519VerifyBatch(items), std::vector<bool>{true});
  items[0].signature[5] ^= 1;
  EXPECT_EQ(Ed25519VerifyBatch(items), std::vector<bool>{false});
}

TEST(Ed25519BatchTest, AllGood) {
  Rng rng(23);
  auto items = MakeBatch(10, rng);
  std::vector<bool> ok = Ed25519VerifyBatch(items);
  ASSERT_EQ(ok.size(), items.size());
  for (size_t i = 0; i < ok.size(); ++i) {
    EXPECT_TRUE(ok[i]) << "item " << i;
  }
}

TEST(Ed25519BatchTest, SingleCulpritIdentified) {
  // One forged signature must flip exactly its own verdict: the combined
  // equation fails and bisection pins the culprit.
  Rng rng(24);
  for (size_t culprit : {size_t{0}, size_t{4}, size_t{8}}) {
    auto items = MakeBatch(9, rng);
    items[culprit].signature[10] ^= 0x04;
    std::vector<bool> ok = Ed25519VerifyBatch(items);
    for (size_t i = 0; i < ok.size(); ++i) {
      EXPECT_EQ(ok[i], i != culprit) << "culprit " << culprit << " item " << i;
    }
  }
}

TEST(Ed25519BatchTest, ManyCulpritsIdentified) {
  Rng rng(25);
  auto items = MakeBatch(12, rng);
  std::set<size_t> bad = {1, 2, 7, 11};
  for (size_t i : bad) {
    if (i % 2 == 0) {
      items[i].message.push_back(0x01);  // tampered message
    } else {
      items[i].signature[40] ^= 0x10;  // tampered signature
    }
  }
  std::vector<bool> ok = Ed25519VerifyBatch(items);
  for (size_t i = 0; i < ok.size(); ++i) {
    EXPECT_EQ(ok[i], bad.count(i) == 0) << "item " << i;
  }

  // Every item bad: all verdicts false.
  for (auto& item : items) {
    item.signature[0] ^= 0xff;
  }
  for (bool verdict : Ed25519VerifyBatch(items)) {
    EXPECT_FALSE(verdict);
  }
}

TEST(Ed25519BatchTest, UndecodableInputsRejectedUpFront) {
  Rng rng(26);
  auto items = MakeBatch(4, rng);
  items[0].public_key.resize(16);                // wrong key size
  items[1].signature[63] |= 0xf0;                // non-canonical S
  items[2].signature.resize(10);                 // wrong signature size
  std::vector<bool> ok = Ed25519VerifyBatch(items);
  EXPECT_EQ(ok, (std::vector<bool>{false, false, false, true}));
}

TEST(Ed25519BatchTest, MatchesSingleVerifyOnNaivePath) {
  // With the fast path off the batch API must fall back to per-item
  // verification with identical verdicts.
  FastPathGuard guard(false);
  Rng rng(27);
  auto items = MakeBatch(3, rng);
  items[1].signature[7] ^= 2;
  std::vector<bool> ok = Ed25519VerifyBatch(items);
  EXPECT_EQ(ok, (std::vector<bool>{true, false, true}));
}

// ---------------------------------------------------------------------------
// Prepared keys: the split-scalar chain must give exactly the verdicts of
// the unprepared chain and of the naive reference ladders, on valid and on
// hostile inputs alike.
// ---------------------------------------------------------------------------

// The eight small-order points, plus non-canonical encodings (y >= p) of
// two of them.
const char* const kSmallOrderEncodings[] = {
    "0100000000000000000000000000000000000000000000000000000000000000",
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000080",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
};

// A 32-byte string that is not a valid point encoding.
Bytes UndecodablePoint(Rng& rng) {
  for (;;) {
    Bytes b = rng.NextBytes(32);
    if (Ed25519PrepareKey(b) == nullptr) {
      return b;
    }
  }
}

// S + L: the same scalar mod L, but non-canonical (S + L < 2^256 always).
Bytes AddOrderToS(const Bytes& sig) {
  static const uint8_t kL[32] = {
      0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
      0xa2, 0xde, 0xf9, 0xde, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10};
  Bytes out = sig;
  int carry = 0;
  for (int i = 0; i < 32; ++i) {
    int v = sig[32 + i] + kL[i] + carry;
    out[32 + i] = static_cast<uint8_t>(v);
    carry = v >> 8;
  }
  return out;
}

// Valid signatures from a few keys, and every kind of broken one.
std::vector<Ed25519BatchItem> AdversarialItems(Rng& rng) {
  std::vector<Ed25519BatchItem> items;
  for (int k = 0; k < 3; ++k) {
    Bytes seed = rng.NextBytes(kEd25519SeedSize);
    Bytes pub = Ed25519PublicKey(seed);
    for (int m = 0; m < 3; ++m) {
      Bytes msg = rng.NextBytes(1 + rng.NextBounded(150));
      Bytes sig = Ed25519Sign(seed, msg);
      auto add = [&](const Bytes& p, const Bytes& mm, const Bytes& sg) {
        items.push_back({p, mm, sg, nullptr});
      };
      add(pub, msg, sig);
      for (int flip = 0; flip < 4; ++flip) {
        Bytes bad = sig;
        int bit = static_cast<int>(rng.NextBounded(256));
        bad[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));  // R
        add(pub, msg, bad);
        bad = sig;
        bit = static_cast<int>(rng.NextBounded(253));
        bad[32 + bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));  // S
        add(pub, msg, bad);
        Bytes bad_msg = msg;
        bit = static_cast<int>(rng.NextBounded(8 * msg.size()));
        bad_msg[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
        add(pub, bad_msg, sig);
        Bytes bad_pub = pub;
        bit = static_cast<int>(rng.NextBounded(256));
        bad_pub[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
        add(bad_pub, msg, sig);
      }
      add(pub, msg, AddOrderToS(sig));
      Bytes high_s = sig;
      high_s[63] |= 0xe0;
      add(pub, msg, high_s);
      Bytes bad_r = sig;
      Bytes undecodable = UndecodablePoint(rng);
      std::copy(undecodable.begin(), undecodable.end(), bad_r.begin());
      add(pub, msg, bad_r);
      add(UndecodablePoint(rng), msg, sig);
      for (const char* hex : kSmallOrderEncodings) {
        Bytes small = HexDecode(hex);
        Bytes small_r = sig;
        std::copy(small.begin(), small.end(), small_r.begin());
        add(pub, msg, small_r);
      }
    }
  }
  return items;
}

// Signatures under small-order keys. With S = 0 and a small-order R the
// cofactorless equation [S]B - [k]A == R holds whenever [k]A == -R, so
// some of these verify; every path must agree on which.
std::vector<Ed25519BatchItem> SmallOrderKeyItems(Rng& rng) {
  std::vector<Ed25519BatchItem> items;
  for (const char* key_hex : kSmallOrderEncodings) {
    for (const char* r_hex : {kSmallOrderEncodings[0], kSmallOrderEncodings[1],
                              kSmallOrderEncodings[6]}) {
      Bytes sig = HexDecode(r_hex);
      sig.resize(kEd25519SignatureSize, 0);
      items.push_back({HexDecode(key_hex), rng.NextBytes(16), sig, nullptr});
    }
  }
  return items;
}

// Checks that prepared, unprepared and naive single verification agree on
// every item and returns the verdicts; sets each item's prepared key.
std::vector<bool> ExpectSinglePathsAgree(
    std::vector<Ed25519BatchItem>& items,
    std::vector<std::shared_ptr<const Ed25519PreparedKey>>& keys) {
  std::vector<bool> naive(items.size());
  {
    FastPathGuard guard(false);
    for (size_t i = 0; i < items.size(); ++i) {
      naive[i] = Ed25519Verify(items[i].public_key, items[i].message,
                               items[i].signature);
    }
  }
  keys.assign(items.size(), nullptr);
  for (size_t i = 0; i < items.size(); ++i) {
    Ed25519BatchItem& it = items[i];
    EXPECT_EQ(Ed25519Verify(it.public_key, it.message, it.signature),
              naive[i])
        << "item " << i;
    keys[i] = Ed25519PrepareKey(it.public_key);
    if (keys[i] == nullptr) {
      EXPECT_FALSE(naive[i]) << "item " << i << ": undecodable key accepted";
      continue;
    }
    EXPECT_EQ(Ed25519VerifyPrepared(*keys[i], it.message, it.signature),
              naive[i])
        << "item " << i;
    {
      FastPathGuard guard(false);
      EXPECT_EQ(Ed25519VerifyPrepared(*keys[i], it.message, it.signature),
                naive[i])
          << "item " << i << " (naive path)";
    }
    it.prepared = keys[i].get();
  }
  return naive;
}

TEST(Ed25519PreparedTest, VerdictsMatchUnpreparedAndNaive) {
  Rng rng(40);
  std::vector<Ed25519BatchItem> items = AdversarialItems(rng);
  std::vector<std::shared_ptr<const Ed25519PreparedKey>> keys;
  const std::vector<bool> naive = ExpectSinglePathsAgree(items, keys);
  // The set must exercise both verdicts and both key kinds.
  const size_t accepted = std::count(naive.begin(), naive.end(), true);
  const size_t prepared = items.size() - std::count(keys.begin(), keys.end(),
                                                    nullptr);
  EXPECT_EQ(accepted, 9u);
  EXPECT_LT(prepared, items.size());

  // Batched, with prepared keys, without, and on the naive path.
  EXPECT_EQ(Ed25519VerifyBatch(items), naive);
  {
    FastPathGuard guard(false);
    EXPECT_EQ(Ed25519VerifyBatch(items), naive);
  }
  for (Ed25519BatchItem& it : items) {
    it.prepared = nullptr;
  }
  EXPECT_EQ(Ed25519VerifyBatch(items), naive);
}

TEST(Ed25519PreparedTest, SmallOrderKeysMatchUnpreparedAndNaive) {
  Rng rng(44);
  std::vector<Ed25519BatchItem> items = SmallOrderKeyItems(rng);
  std::vector<std::shared_ptr<const Ed25519PreparedKey>> keys;
  const std::vector<bool> naive = ExpectSinglePathsAgree(items, keys);
  const size_t accepted = std::count(naive.begin(), naive.end(), true);
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, items.size());

  // Batched, prepared keys give the unprepared batch verdicts. (Batching
  // is not exact for keys with a small-order component; see
  // Ed25519VerifyBatch.)
  std::vector<bool> batched = Ed25519VerifyBatch(items);
  for (Ed25519BatchItem& it : items) {
    it.prepared = nullptr;
  }
  EXPECT_EQ(Ed25519VerifyBatch(items), batched);
}

TEST(Ed25519PreparedTest, MixedBatchCulpritAtEveryPosition) {
  Rng rng(41);
  const size_t n = 9;
  auto items = MakeBatch(n, rng);
  std::vector<std::shared_ptr<const Ed25519PreparedKey>> keys(n);
  for (size_t i = 0; i < n; i += 2) {
    keys[i] = Ed25519PrepareKey(items[i].public_key);
    items[i].prepared = keys[i].get();
  }
  EXPECT_EQ(Ed25519VerifyBatch(items), std::vector<bool>(n, true));
  for (size_t culprit = 0; culprit < n; ++culprit) {
    auto batch = items;
    batch[culprit].signature[culprit % 64] ^= 0x08;
    std::vector<bool> want(n, true);
    want[culprit] = false;
    EXPECT_EQ(Ed25519VerifyBatch(batch), want) << "culprit " << culprit;
  }
}

// Batches under more keys than the prepared-key map holds, each key
// signing a run of three fresh messages (one signature in five forged), so
// within one VerifyBatch call a key is recorded, prepared and used, and
// then evicted by a later key's run while its table is still pinned. Each
// batch ends with a repeat of its first item, and every item is verified
// once more singly. Verdicts must be the cache-less ones, and Stats must
// count exactly the distinct triples as misses and the repeats as hits.
TEST(VerifyCacheTest, PreparedKeyEvictionChangesNoVerdictOrStat) {
  Rng rng(42);
  std::vector<KeyPair> kps;
  for (size_t k = 0; k < VerifyCache::kPreparedKeyCapacity + 2; ++k) {
    kps.push_back(KeyPair::Generate(SignatureScheme::kEd25519, rng));
  }
  VerifyCache cache;
  std::set<Bytes> distinct;
  uint64_t lookups = 0;
  for (int round = 0; round < 3; ++round) {
    std::vector<VerifyItem> batch;
    for (size_t k = 0; k < kps.size(); ++k) {
      for (int j = 0; j < 3; ++j) {
        Bytes msg = ToBytes("r" + std::to_string(round) + " k" +
                            std::to_string(k) + " j" + std::to_string(j));
        Bytes sig = Signer(kps[k]).Sign(msg);
        if (rng.NextBounded(5) == 0) {
          sig[rng.NextBounded(64)] ^= 0x01;
        }
        batch.push_back({kps[k].public_key, msg, sig});
      }
    }
    batch.push_back(batch.front());
    std::vector<bool> want;
    for (const VerifyItem& it : batch) {
      want.push_back(VerifySignature(SignatureScheme::kEd25519, it.public_key,
                                     it.message, it.signature));
      Bytes triple = it.public_key;
      Append(triple, it.message);
      Append(triple, it.signature);
      distinct.insert(triple);
    }
    EXPECT_EQ(cache.VerifyBatch(SignatureScheme::kEd25519, batch), want)
        << "round " << round;
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(cache.Verify(SignatureScheme::kEd25519, batch[i].public_key,
                             batch[i].message, batch[i].signature),
                want[i])
          << "round " << round << " item " << i;
    }
    lookups += 2 * batch.size();
  }
  EXPECT_EQ(cache.stats().misses, distinct.size());
  EXPECT_EQ(cache.stats().hits, lookups - distinct.size());
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.prepared_keys(), VerifyCache::kPreparedKeyCapacity);
}

TEST(VerifyCacheTest, KeyIsPreparedOnItsSecondVerification) {
  Rng rng(43);
  KeyPair kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer signer(kp);
  Bytes m1 = ToBytes("m1"), m2 = ToBytes("m2");
  VerifyCache cache;
  EXPECT_TRUE(cache.Verify(kp.scheme, kp.public_key, m1, signer.Sign(m1)));
  EXPECT_EQ(cache.prepared_keys(), 0u);
  // A cache hit does not reach the crypto and does not count as a use.
  EXPECT_TRUE(cache.Verify(kp.scheme, kp.public_key, m1, signer.Sign(m1)));
  EXPECT_EQ(cache.prepared_keys(), 0u);
  EXPECT_TRUE(cache.Verify(kp.scheme, kp.public_key, m2, signer.Sign(m2)));
  EXPECT_EQ(cache.prepared_keys(), 1u);

  // Other schemes keep no prepared keys.
  KeyPair hmac = KeyPair::Generate(SignatureScheme::kHmacSha256, rng);
  Signer hmac_signer(hmac);
  for (const Bytes& m : {m1, m2, ToBytes("m3")}) {
    EXPECT_TRUE(cache.Verify(hmac.scheme, hmac.public_key, m,
                             hmac_signer.Sign(m)));
  }
  EXPECT_EQ(cache.prepared_keys(), 1u);
}

TEST(VerifyCacheTest, HitMissAndNegativeCaching) {
  Rng rng(30);
  KeyPair kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer signer(kp);
  Bytes msg = ToBytes("pledge body");
  Bytes sig = signer.Sign(msg);
  Bytes bad = sig;
  bad[3] ^= 1;

  VerifyCache cache;
  EXPECT_TRUE(cache.Verify(kp.scheme, kp.public_key, msg, sig));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);

  EXPECT_TRUE(cache.Verify(kp.scheme, kp.public_key, msg, sig));
  EXPECT_EQ(cache.stats().hits, 1u);

  // A forged signature is cached too — with verdict false.
  EXPECT_FALSE(cache.Verify(kp.scheme, kp.public_key, msg, bad));
  EXPECT_FALSE(cache.Verify(kp.scheme, kp.public_key, msg, bad));
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(VerifyCacheTest, LruEviction) {
  Rng rng(31);
  KeyPair kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer signer(kp);
  Bytes m1 = ToBytes("m1"), m2 = ToBytes("m2"), m3 = ToBytes("m3");
  Bytes s1 = signer.Sign(m1), s2 = signer.Sign(m2), s3 = signer.Sign(m3);

  VerifyCache cache(/*capacity=*/2);
  cache.Verify(kp.scheme, kp.public_key, m1, s1);
  cache.Verify(kp.scheme, kp.public_key, m2, s2);
  // Touch m1 so m2 is the LRU entry, then insert m3 -> m2 evicted.
  cache.Verify(kp.scheme, kp.public_key, m1, s1);
  cache.Verify(kp.scheme, kp.public_key, m3, s3);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);

  uint64_t misses_before = cache.stats().misses;
  cache.Verify(kp.scheme, kp.public_key, m1, s1);  // still cached
  EXPECT_EQ(cache.stats().misses, misses_before);
  cache.Verify(kp.scheme, kp.public_key, m2, s2);  // was evicted
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(VerifyCacheTest, BatchDeduplicatesRepeatedTriples) {
  // The auditor's shape: many pledges carrying the identical master token.
  Rng rng(32);
  KeyPair slave_kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  KeyPair master_kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer slave(slave_kp);
  Signer master(master_kp);
  Bytes token_body = ToBytes("token v=7");
  Bytes token_sig = master.Sign(token_body);

  std::vector<VerifyItem> items;
  for (int i = 0; i < 4; ++i) {
    Bytes body = ToBytes("pledge " + std::to_string(i));
    items.push_back({slave_kp.public_key, body, slave.Sign(body)});
    items.push_back({master_kp.public_key, token_body, token_sig});
  }

  VerifyCache cache;
  std::vector<bool> ok = cache.VerifyBatch(SignatureScheme::kEd25519, items);
  for (size_t i = 0; i < ok.size(); ++i) {
    EXPECT_TRUE(ok[i]) << "item " << i;
  }
  // 4 distinct pledges + 1 distinct token verified; 3 token repeats hit the
  // in-batch dedup.
  EXPECT_EQ(cache.stats().misses, 5u);
  EXPECT_EQ(cache.stats().hits, 3u);

  // Re-verifying the same batch is all hits.
  cache.VerifyBatch(SignatureScheme::kEd25519, items);
  EXPECT_EQ(cache.stats().hits, 11u);
  EXPECT_EQ(cache.stats().misses, 5u);
}

TEST(SignerTest, AllSchemesRoundTrip) {
  Rng rng(11);
  for (SignatureScheme scheme :
       {SignatureScheme::kEd25519, SignatureScheme::kHmacSha256,
        SignatureScheme::kNull}) {
    KeyPair kp = KeyPair::Generate(scheme, rng);
    Signer signer(kp);
    Bytes msg = ToBytes("read pledge body");
    Bytes sig = signer.Sign(msg);
    EXPECT_TRUE(VerifySignature(scheme, kp.public_key, msg, sig))
        << SignatureSchemeName(scheme);
  }
}

TEST(SignerTest, HmacTamperDetected) {
  Rng rng(12);
  KeyPair kp = KeyPair::Generate(SignatureScheme::kHmacSha256, rng);
  Signer signer(kp);
  Bytes msg = ToBytes("v=3");
  Bytes sig = signer.Sign(msg);
  Bytes other = ToBytes("v=4");
  EXPECT_FALSE(
      VerifySignature(SignatureScheme::kHmacSha256, kp.public_key, other, sig));
}

}  // namespace
}  // namespace sdr
