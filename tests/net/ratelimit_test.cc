/**
 * @file
 * Token-bucket tests: the clock is injected, so every refill scenario
 * is deterministic.
 */

#include <gtest/gtest.h>

#include "net/ratelimit.hh"

namespace mintcb::net
{
namespace
{

TEST(TokenBucket, DisabledBucketAlwaysAdmits)
{
    TokenBucket bucket; // capacity 0
    EXPECT_FALSE(bucket.enabled());
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(bucket.tryAcquire(0));
    EXPECT_EQ(bucket.millisUntilToken(0), 0u);
}

TEST(TokenBucket, BurstThenRefusal)
{
    TokenBucket bucket(3, 10.0, 1000);
    EXPECT_TRUE(bucket.tryAcquire(1000));
    EXPECT_TRUE(bucket.tryAcquire(1000));
    EXPECT_TRUE(bucket.tryAcquire(1000));
    EXPECT_FALSE(bucket.tryAcquire(1000)); // burst spent, no time passed
}

TEST(TokenBucket, RefillsAtConfiguredRate)
{
    TokenBucket bucket(2, 10.0, 0); // one token per 100 ms
    EXPECT_TRUE(bucket.tryAcquire(0));
    EXPECT_TRUE(bucket.tryAcquire(0));
    EXPECT_FALSE(bucket.tryAcquire(50));  // only half a token back
    EXPECT_TRUE(bucket.tryAcquire(150));  // 1.5 accrued
    EXPECT_FALSE(bucket.tryAcquire(160)); // 0.6 left
}

TEST(TokenBucket, CapacityClampsAccrual)
{
    TokenBucket bucket(2, 10.0, 0);
    // A long quiet period must not bank more than the burst capacity.
    EXPECT_TRUE(bucket.tryAcquire(100000));
    EXPECT_TRUE(bucket.tryAcquire(100000));
    EXPECT_FALSE(bucket.tryAcquire(100000));
}

TEST(TokenBucket, RetryHintPredictsAvailability)
{
    TokenBucket bucket(1, 10.0, 0); // one token per 100 ms
    EXPECT_TRUE(bucket.tryAcquire(0));
    const std::uint32_t hint = bucket.millisUntilToken(0);
    EXPECT_GT(hint, 0u);
    EXPECT_LE(hint, 101u);
    // Waiting exactly the hint must be enough.
    EXPECT_TRUE(bucket.tryAcquire(hint));
    // And the hint is zero when a token is ready.
    TokenBucket ready(1, 10.0, 0);
    EXPECT_EQ(ready.millisUntilToken(0), 0u);
}

TEST(TokenBucket, RetryHintSaturatesInsteadOfWrapping)
{
    // One token per ~31 years, per ~58 days and per ~50 days: each
    // hint is past 2^32 ms and must saturate, not wrap to a value that
    // sends the client back in seconds.
    for (double per_second : {1e-9, 2e-7, 2.328e-7}) {
        TokenBucket bucket(1, per_second, 0);
        EXPECT_TRUE(bucket.tryAcquire(0));
        EXPECT_EQ(bucket.millisUntilToken(0), UINT32_MAX) << per_second;
    }
    // Just inside the range the hint is still exact: 2^-22 tokens/s
    // refills one token in 4194304 s.
    TokenBucket slow(1, 1.0 / 4194304.0, 0);
    EXPECT_TRUE(slow.tryAcquire(0));
    EXPECT_EQ(slow.millisUntilToken(0), 4194304001u);
}

TEST(TokenBucket, ClockGoingBackwardIsIgnored)
{
    TokenBucket bucket(1, 1000.0, 1000);
    EXPECT_TRUE(bucket.tryAcquire(1000));
    // A non-monotonic sample must not mint tokens or crash.
    EXPECT_FALSE(bucket.tryAcquire(500));
    EXPECT_FALSE(bucket.tryAcquire(999));
}

} // namespace
} // namespace mintcb::net
