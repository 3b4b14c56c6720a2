#include "src/crypto/sha1.h"

#include <cstring>

namespace sdr {

namespace {
inline uint32_t Rotl32(uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}
}  // namespace

Sha1::Sha1() {
  h_[0] = 0x67452301u;
  h_[1] = 0xefcdab89u;
  h_[2] = 0x98badcfeu;
  h_[3] = 0x10325476u;
  h_[4] = 0xc3d2e1f0u;
}

void Sha1::ProcessBlock(const uint8_t* block) {
  uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<uint32_t>(block[4 * i]) << 24 |
           static_cast<uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = Rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  for (int i = 0; i < 80; ++i) {
    uint32_t f;
    uint32_t k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5a827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ed9eba1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8f1bbcdcu;
    } else {
      f = b ^ c ^ d;
      k = 0xca62c1d6u;
    }
    uint32_t temp = Rotl32(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = Rotl32(b, 30);
    b = a;
    a = temp;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void Sha1::Update(const uint8_t* data, size_t len) {
  if (len == 0) {
    return;  // `data` may be null; memcpy must not see it
  }
  total_len_ += len;
  if (buffer_len_ > 0) {
    size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == kBlockSize) {
      ProcessBlock(buffer_);
      buffer_len_ = 0;
    }
  }
  while (len >= kBlockSize) {
    ProcessBlock(data);
    data += kBlockSize;
    len -= kBlockSize;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

Bytes Sha1::Final() {
  uint64_t bit_len = total_len_ * 8;
  // 0x80 then zeros up to 56 mod 64, in one Update.
  uint8_t pad[kBlockSize] = {0x80};
  Update(pad, (buffer_len_ < 56 ? 56 : 56 + kBlockSize) - buffer_len_);
  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  // Update() counts these into total_len_, but bit_len is already latched.
  Update(len_bytes, 8);

  Bytes digest(kDigestSize);
  for (int i = 0; i < 5; ++i) {
    digest[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return digest;
}

Bytes Sha1::Hash(const Bytes& data) {
  Sha1 h;
  h.Update(data);
  return h.Final();
}

Bytes Sha1::Hash(std::string_view data) {
  Sha1 h;
  h.Update(data);
  return h.Final();
}

}  // namespace sdr
