/** @file Tests for logging/formatting helpers. */

#include <gtest/gtest.h>

#include <thread>

#include "common/log.hh"
#include "common/types.hh"

using namespace cais;

TEST(Log, StrfmtFormats)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 42, "ok"), "x=42 y=ok");
    EXPECT_EQ(strfmt("%.2f", 3.14159), "3.14");
    EXPECT_EQ(strfmt("empty"), "empty");
    // Long strings are not truncated.
    std::string big(500, 'a');
    EXPECT_EQ(strfmt("%s", big.c_str()).size(), 500u);
}

TEST(Log, StrfmtFormatsShortAndLongOutputExactly)
{
    // Shorter than the stack buffer: formatted in one pass.
    EXPECT_EQ(strfmt("%s.g%d.l%d", "t_dn", 2, 5), "t_dn.g2.l5");
    // Longer than it: formatted again into the string, whole.
    std::string tail(300, 'z');
    std::string want = "head 12345 " + tail + " 0x2a end";
    EXPECT_EQ(strfmt("head %d %s 0x%x end", 12345, tail.c_str(), 42),
              want);
}

TEST(Log, LevelsRoundTrip)
{
    LogLevel before = logLevel();
    setLogLevel(LogLevel::quiet);
    EXPECT_EQ(logLevel(), LogLevel::quiet);
    inform("suppressed %d", 1); // must not crash
    setLogLevel(LogLevel::verbose);
    informVerbose("verbose %d", 2);
    setLogLevel(before);
}

TEST(Log, ScopedLevelOverridesAndRestores)
{
    LogLevel before = logLevel();
    {
        ScopedLogLevel quiet(LogLevel::quiet);
        EXPECT_EQ(logLevel(), LogLevel::quiet);
        {
            ScopedLogLevel verbose(LogLevel::verbose);
            EXPECT_EQ(logLevel(), LogLevel::verbose);
        }
        EXPECT_EQ(logLevel(), LogLevel::quiet);
    }
    EXPECT_EQ(logLevel(), before);
    // The override is thread-local: another thread sees the global.
    {
        ScopedLogLevel quiet(LogLevel::quiet);
        LogLevel seen = LogLevel::quiet;
        std::thread t([&] { seen = logLevel(); });
        t.join();
        EXPECT_EQ(seen, before);
    }
}

TEST(LogDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 7), "boom 7");
}

TEST(LogDeathTest, FatalExitsCleanly)
{
    EXPECT_EXIT(fatal("bad config %s", "x"),
                ::testing::ExitedWithCode(1), "bad config x");
}

TEST(Types, AddressHomeEncoding)
{
    for (GpuId g : {0, 1, 7, 31}) {
        Addr a = makeAddr(g, 0x12345);
        EXPECT_EQ(addrHomeGpu(a), g);
        EXPECT_EQ(addrOffset(a), 0x12345u);
    }
    EXPECT_EQ(cyclesPerUs, 1000u);
    EXPECT_EQ(cyclesPerMs, 1000u * 1000u);
}
