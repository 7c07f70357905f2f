/**
 * @file
 * The Merkle-Damgard frame SHA-1 and SHA-256 share: a 64-byte block
 * buffer, 0x80 padding with a big-endian bit count, and a big-endian
 * digest of 32-bit state words. Each hash supplies only its initial
 * state and its compression function.
 */

#ifndef MINTCB_CRYPTO_MDHASH_HH
#define MINTCB_CRYPTO_MDHASH_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "common/types.hh"

namespace mintcb::crypto
{

/** Compression-function calls made on this thread, per hash. They
 *  are exact and host-independent, so a test gates a path's hash work
 *  with EXPECT_EQ; thread-local, so the per-block path shares no cache
 *  line across reactor and worker threads. */
struct HashBlockCounts
{
    std::uint64_t sha1 = 0;
    std::uint64_t sha256 = 0;
};

inline thread_local HashBlockCounts threadHashBlocks;

/** This thread's counts so far. */
inline HashBlockCounts hashBlockCounts() { return threadHashBlocks; }

/** Copy a digest array into a Bytes vector. */
template <std::size_t N>
Bytes
toBytes(const std::array<std::uint8_t, N> &d)
{
    return Bytes(d.begin(), d.end());
}

/**
 * Incremental context for hash @p Hash, which provides
 * `static const std::uint32_t initialState[Words]` and
 * `static void compress(std::uint32_t *state, const std::uint8_t *block)`.
 */
template <typename Hash, std::size_t Words>
class MdHash
{
  public:
    static constexpr std::size_t digestSize = Words * 4;
    static constexpr std::size_t blockSize = 64;
    using Digest = std::array<std::uint8_t, digestSize>;

    MdHash() { reset(); }

    /** Restart the hash computation. */
    void
    reset()
    {
        std::copy_n(Hash::initialState, Words, h_);
        bufferLen_ = 0;
        totalBits_ = 0;
    }

    /** Absorb @p len bytes at @p data. */
    void
    update(const std::uint8_t *data, std::size_t len)
    {
        totalBits_ += static_cast<std::uint64_t>(len) * 8;
        while (len > 0) {
            const std::size_t take = std::min(len, blockSize - bufferLen_);
            std::memcpy(buffer_ + bufferLen_, data, take);
            bufferLen_ += take;
            data += take;
            len -= take;
            if (bufferLen_ == blockSize) {
                Hash::compress(h_, buffer_);
                bufferLen_ = 0;
            }
        }
    }

    /** Absorb a byte vector. */
    void update(const Bytes &data) { update(data.data(), data.size()); }

    /** Finish and return the digest; reset() before reusing. Pads in
     *  place: 0x80, zeros up to byte 56 (through one extra block when
     *  fewer than 9 bytes are left), then the bit count. */
    Digest
    finish()
    {
        buffer_[bufferLen_++] = 0x80;
        if (bufferLen_ > blockSize - 8) {
            std::memset(buffer_ + bufferLen_, 0, blockSize - bufferLen_);
            Hash::compress(h_, buffer_);
            bufferLen_ = 0;
        }
        std::memset(buffer_ + bufferLen_, 0, blockSize - 8 - bufferLen_);
        for (std::size_t i = 0; i < 8; ++i)
            buffer_[blockSize - 8 + i] =
                static_cast<std::uint8_t>(totalBits_ >> (56 - 8 * i));
        Hash::compress(h_, buffer_);
        bufferLen_ = 0;

        Digest out;
        for (std::size_t i = 0; i < Words; ++i) {
            out[i * 4] = static_cast<std::uint8_t>(h_[i] >> 24);
            out[i * 4 + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
            out[i * 4 + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
            out[i * 4 + 3] = static_cast<std::uint8_t>(h_[i]);
        }
        return out;
    }

    /** One-shot digest of a byte vector. */
    static Digest
    digest(const Bytes &data)
    {
        Hash ctx;
        ctx.update(data);
        return ctx.finish();
    }

    /** One-shot digest returned as a byte vector. */
    static Bytes
    digestBytes(const Bytes &data)
    {
        return toBytes(digest(data));
    }

  private:
    std::uint32_t h_[Words];
    std::uint8_t buffer_[blockSize];
    std::size_t bufferLen_;
    std::uint64_t totalBits_;
};

} // namespace mintcb::crypto

#endif // MINTCB_CRYPTO_MDHASH_HH
