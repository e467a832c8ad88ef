// End-to-end tests of the mpserve CLI tool's argument checks, driven
// through the real binary: a negative count, a zero session, window or
// queue size, a thread count beyond an int and a fraction outside [0, 1]
// are usage errors (exit 2) reported before any pool or server is built,
// and a small valid run still answers every request (exit 0).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace {

int run(const std::string& args) {
  const std::string cmd =
      std::string(MPSERVE_BINARY) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

// Few small requests on two lanes: a run that finishes in milliseconds.
const std::string kSmall =
    "--requests 8 --sessions 2 --window 2 --threads 2 --min-elements 16 "
    "--max-elements 256";

TEST(MpserveTool, SmallRunAnswersEverything) {
  EXPECT_EQ(run(kSmall), 0);
  // The ends of the accepted ranges.
  EXPECT_EQ(run(kSmall + " --merge-fraction 1 --width64-fraction 0"), 0);
  EXPECT_EQ(run(kSmall + " --queue-capacity 1 --lane-fault-rate 0"), 0);
  EXPECT_EQ(run("--requests 0 --threads 1"), 0);
}

TEST(MpserveTool, NegativeCountsAreUsageErrors) {
  for (const char* flag : {"requests", "sessions", "window", "min-elements",
                           "max-elements", "threads", "queue-capacity"}) {
    EXPECT_EQ(run(kSmall + " --" + flag + " -1"), 2) << flag;
  }
}

TEST(MpserveTool, ThreadCountsBeyondAnIntAreUsageErrors) {
  // 2^32 + 1 used to wrap to one lane; nothing is spawned for a rejected
  // value.
  EXPECT_EQ(run(kSmall + " --threads 4294967297"), 2);
  EXPECT_EQ(run(kSmall + " --threads 2147483648"), 2);
}

TEST(MpserveTool, ZeroSessionsWindowOrQueueAreUsageErrors) {
  EXPECT_EQ(run(kSmall + " --sessions 0"), 2);
  EXPECT_EQ(run(kSmall + " --window 0"), 2);
  EXPECT_EQ(run(kSmall + " --queue-capacity 0"), 2);
}

TEST(MpserveTool, FractionsOutsideZeroOneAreUsageErrors) {
  EXPECT_EQ(run(kSmall + " --merge-fraction 1.5"), 2);
  EXPECT_EQ(run(kSmall + " --merge-fraction -0.1"), 2);
  EXPECT_EQ(run(kSmall + " --width64-fraction 2"), 2);
  EXPECT_EQ(run(kSmall + " --lane-fault-rate -0.5"), 2);
  EXPECT_EQ(run(kSmall + " --lane-fault-rate 1.01"), 2);
}

TEST(MpserveTool, MalformedAndUnknownFlagsAreUsageErrors) {
  EXPECT_EQ(run(kSmall + " --threads banana"), 2);
  EXPECT_EQ(run(kSmall + " --merge-fraction half"), 2);
  EXPECT_EQ(run(kSmall + " --no-such-flag 1"), 2);
}

}  // namespace
