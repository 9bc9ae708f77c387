// Session framing, written once for every transport.
//
// The wire rule has two steps. Bytes split into '\n'-terminated lines
// (LineFramer). Lines then group into frames (FrameAssembler): a request
// magic line (`sasynth-request v1`, `sasynth-deploy v1`, `sasynth-shard v1`)
// opens a block that collects every following line up to and including
// `end`; any other non-blank line is a bare command, trimmed.
//
// FdLineReader (shard and peer-probe clients) and the event loop's
// connections (TCP and stdio) split lines with LineFramer; the event loop
// groups them with FrameAssembler — so no transport can frame a session
// differently from another.
#pragma once

#include <cstddef>
#include <string>

namespace sasynth {

/// Bytes → lines. Complete lines come out without their '\n'; a trailing
/// unterminated line comes out only at clean EOF (take_trailing). A read
/// error, timeout or drain calls drop_partial instead: a truncated request
/// must never reach the parser as if it were complete.
class LineFramer {
 public:
  void append(const char* data, std::size_t n) { buffer_.append(data, n); }

  /// Pops the next complete line into `out`; false when none is buffered.
  bool next_line(std::string* out);

  /// Clean EOF: pops the trailing unterminated line; false when none.
  bool take_trailing(std::string* out);

  /// Drops the buffered partial line; returns how many bytes it held.
  std::size_t drop_partial();

 private:
  std::string buffer_;
};

/// What a session block is, decided by its magic line at framing time.
enum class BlockKind {
  kSynth,   ///< sasynth-request v1
  kDeploy,  ///< sasynth-deploy v1
  kShard,   ///< sasynth-shard v1 (worker side of the shard tier)
};

/// One framed unit of a session: a request block, or a bare command.
struct SessionFrame {
  bool is_block = false;
  BlockKind kind = BlockKind::kSynth;
  /// The block (magic line trimmed, every other line verbatim, each
  /// '\n'-terminated), or the trimmed command.
  std::string text;
};

/// Lines → frames.
class FrameAssembler {
 public:
  /// Feeds one line; true when it completed a frame, stored in `out`.
  /// Blank lines outside a block frame nothing.
  bool push(const std::string& line, SessionFrame* out);

  /// End of input: a block cut off before its `end` line is still a frame,
  /// submitted as is so that its parse error is the session's answer. False
  /// when no block is open.
  bool finish(SessionFrame* out);

  /// True while a block is open (its `end` line has not arrived).
  bool in_block() const { return in_block_; }

 private:
  bool in_block_ = false;
  SessionFrame block_;
};

}  // namespace sasynth
