#include "serve/tcp.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>

namespace sasynth {
namespace {

TEST(TcpListenerTest, EphemeralPortIsReported) {
  TcpListener listener;
  std::string error;
  ASSERT_TRUE(listener.listen_on(0, &error)) << error;
  EXPECT_GT(listener.port(), 0);
  listener.close_listener();
}

TEST(FdLineReaderTest, SplitsLinesAndDeliversTrailingFragment) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload = "alpha\nbeta\n\ngamma";  // no trailing newline
  ASSERT_TRUE(write_all_fd(fds[1], payload));
  ::close(fds[1]);

  FdLineReader reader(fds[0]);
  std::string line;
  ASSERT_TRUE(reader.read_line(&line));
  EXPECT_EQ(line, "alpha");
  ASSERT_TRUE(reader.read_line(&line));
  EXPECT_EQ(line, "beta");
  ASSERT_TRUE(reader.read_line(&line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(reader.read_line(&line));
  EXPECT_EQ(line, "gamma");
  EXPECT_FALSE(reader.read_line(&line));
  ::close(fds[0]);
}

}  // namespace
}  // namespace sasynth
