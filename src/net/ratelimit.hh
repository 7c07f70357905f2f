/**
 * @file
 * Per-client token-bucket rate limiting for the gateway.
 *
 * Admission control is the one place the gateway runs on *host* time:
 * it shapes real network traffic, not simulated hardware. The clock is
 * injected (a millisecond counter) so tests drive refill
 * deterministically and the bench can produce exact busy-frame counts.
 */

#ifndef MINTCB_NET_RATELIMIT_HH
#define MINTCB_NET_RATELIMIT_HH

#include <cstdint>

namespace mintcb::net
{

/** Classic token bucket: capacity-bounded, refilled continuously at a
 *  fixed rate. A disabled bucket (capacity 0) always admits. */
class TokenBucket
{
  public:
    TokenBucket() = default;

    /** @p capacity tokens of burst, refilled at @p per_second tokens
     *  per second starting from full at @p now_ms. */
    TokenBucket(std::uint32_t capacity, double per_second,
                std::uint64_t now_ms)
        : capacity_(capacity), perSecond_(per_second),
          tokens_(static_cast<double>(capacity)), lastMs_(now_ms)
    {
    }

    bool enabled() const { return capacity_ > 0; }

    /** Try to spend one token at host time @p now_ms. */
    bool
    tryAcquire(std::uint64_t now_ms)
    {
        if (!enabled())
            return true;
        refill(now_ms);
        if (tokens_ >= 1.0) {
            tokens_ -= 1.0;
            return true;
        }
        return false;
    }

    /** Milliseconds until one token will be available (retry hint for
     *  busy frames), saturating at UINT32_MAX; 0 when a token is ready
     *  or refill is disabled. */
    std::uint32_t
    millisUntilToken(std::uint64_t now_ms)
    {
        if (!enabled())
            return 0;
        refill(now_ms);
        if (tokens_ >= 1.0)
            return 0;
        if (perSecond_ <= 0.0)
            return 0; // no refill: the hint cannot be computed
        const double missing = 1.0 - tokens_;
        const double ms = missing / perSecond_ * 1000.0;
        // A tiny rate can need longer than the hint can say: saturate
        // rather than wrap to a few milliseconds.
        if (ms >= static_cast<double>(UINT32_MAX))
            return UINT32_MAX;
        return static_cast<std::uint32_t>(ms) + 1;
    }

    double tokens() const { return tokens_; }

  private:
    void
    refill(std::uint64_t now_ms)
    {
        if (now_ms <= lastMs_)
            return;
        const double elapsed =
            static_cast<double>(now_ms - lastMs_) / 1000.0;
        tokens_ += elapsed * perSecond_;
        const double cap = static_cast<double>(capacity_);
        if (tokens_ > cap)
            tokens_ = cap;
        lastMs_ = now_ms;
    }

    std::uint32_t capacity_ = 0; //!< 0 = unlimited
    double perSecond_ = 0.0;
    double tokens_ = 0.0;
    std::uint64_t lastMs_ = 0;
};

} // namespace mintcb::net

#endif // MINTCB_NET_RATELIMIT_HH
