#include "serve/framing.h"

#include <utility>

#include "serve/deploy_protocol.h"
#include "serve/protocol.h"
#include "serve/shard.h"
#include "util/strings.h"

namespace sasynth {

bool LineFramer::next_line(std::string* out) {
  const std::size_t newline = buffer_.find('\n');
  if (newline == std::string::npos) return false;
  out->assign(buffer_, 0, newline);
  buffer_.erase(0, newline + 1);
  return true;
}

bool LineFramer::take_trailing(std::string* out) {
  if (buffer_.empty()) return false;
  *out = std::move(buffer_);
  buffer_.clear();
  return true;
}

std::size_t LineFramer::drop_partial() {
  const std::size_t dropped = buffer_.size();
  buffer_.clear();
  return dropped;
}

bool FrameAssembler::push(const std::string& line, SessionFrame* out) {
  const std::string command = trim(line);
  if (in_block_) {
    block_.text += line + "\n";
    if (command != kBlockEnd) return false;
    return finish(out);
  }
  if (command.empty()) return false;
  if (command == kRequestMagic || command == kDeployRequestMagic ||
      command == kShardRequestMagic) {
    in_block_ = true;
    block_.is_block = true;
    block_.kind = command == kDeployRequestMagic  ? BlockKind::kDeploy
                  : command == kShardRequestMagic ? BlockKind::kShard
                                                  : BlockKind::kSynth;
    block_.text = command + "\n";
    return false;
  }
  *out = SessionFrame{false, BlockKind::kSynth, command};
  return true;
}

bool FrameAssembler::finish(SessionFrame* out) {
  if (!in_block_) return false;
  in_block_ = false;
  *out = std::move(block_);
  block_ = SessionFrame{};
  return true;
}

}  // namespace sasynth
