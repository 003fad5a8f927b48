#include "serve/framing.h"

#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>

#include "common/bytes.h"

namespace numdist::serve {

Status WriteFrame(std::ostream& out, std::string_view frame,
                  size_t max_bytes) {
  // The prefix is a u32, so UINT32_MAX caps every frame no matter how far
  // a caller raises max_bytes — otherwise the cast below would silently
  // truncate the length and desynchronize the stream.
  const size_t limit = std::min<size_t>(max_bytes, UINT32_MAX);
  if (frame.size() > limit) {
    return Status::InvalidArgument(
        "framing: frame of " + std::to_string(frame.size()) +
        " bytes exceeds the " + std::to_string(limit) + "-byte limit");
  }
  // Prefix and body go out as ONE buffered write: half the stream-level
  // write calls, and no observable state where the prefix is flushed but
  // the body is not (a reader polling the stream can never see a frame
  // split between the two).
  std::string buffered;
  buffered.reserve(sizeof(uint32_t) + frame.size());
  ByteWriter(&buffered).PutU32(static_cast<uint32_t>(frame.size()));
  buffered.append(frame);
  out.write(buffered.data(), static_cast<std::streamsize>(buffered.size()));
  if (!out) {
    return Status::Internal("framing: stream write failed");
  }
  return Status::OK();
}

void AppendFramePrefix(size_t frame_len, std::string* out) {
  ByteWriter(out).PutU32(static_cast<uint32_t>(frame_len));
}

Status WriteAllFd(int fd, std::string_view head, std::string_view body) {
  iovec iov[2] = {{const_cast<char*>(head.data()), head.size()},
                  {const_cast<char*>(body.data()), body.size()}};
  size_t first = 0;  // first iovec with bytes left to write
  while (first < 2) {
    const ssize_t wrote =
        writev(fd, iov + first, static_cast<int>(2 - first));
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("framing: write failed (") +
                              std::strerror(errno) + ")");
    }
    // Drop what was written: whole iovecs first, then a prefix of the
    // next one.
    size_t left = static_cast<size_t>(wrote);
    while (first < 2 && left >= iov[first].iov_len) {
      left -= iov[first].iov_len;
      ++first;
    }
    if (first < 2) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + left;
      iov[first].iov_len -= left;
    }
  }
  return Status::OK();
}

Status ReadFrame(std::istream& in, std::string* frame, bool* eof,
                 size_t max_bytes) {
  frame->clear();
  *eof = false;
  char prefix[4];
  in.read(prefix, sizeof(prefix));
  if (in.gcount() == 0 && in.eof()) {
    *eof = true;  // clean end of stream between frames
    return Status::OK();
  }
  if (static_cast<size_t>(in.gcount()) < sizeof(prefix)) {
    return Status::OutOfRange(
        "framing: stream ended inside a length prefix (" +
        std::to_string(in.gcount()) + " of 4 bytes)");
  }
  const uint32_t len =
      ByteReader(std::string_view(prefix, sizeof(prefix))).U32().value();
  if (len > max_bytes) {
    return Status::InvalidArgument(
        "framing: length prefix of " + std::to_string(len) +
        " bytes exceeds the " + std::to_string(max_bytes) + "-byte limit");
  }
  frame->resize(len);
  if (len > 0) {
    in.read(frame->data(), static_cast<std::streamsize>(len));
    if (static_cast<size_t>(in.gcount()) < len) {
      return Status::OutOfRange(
          "framing: stream ended inside a frame (" +
          std::to_string(in.gcount()) + " of " + std::to_string(len) +
          " bytes)");
    }
  }
  return Status::OK();
}

void FrameDecoder::ParsePrefix() {
  if (have_len_ || !error_.ok()) return;
  if (buffered_bytes() < sizeof(uint32_t)) return;
  const uint32_t len =
      ByteReader(std::string_view(buf_.data() + pos_, sizeof(uint32_t)))
          .U32()
          .value();
  if (len > max_bytes_) {
    // Same wording as ReadFrame: the two decoders must reject identically.
    error_ = Status::InvalidArgument(
        "framing: length prefix of " + std::to_string(len) +
        " bytes exceeds the " + std::to_string(max_bytes_) + "-byte limit");
    return;
  }
  pos_ += sizeof(uint32_t);
  have_len_ = true;
  len_ = len;
}

Status FrameDecoder::Feed(std::string_view bytes) {
  if (!error_.ok()) return error_;
  buf_.append(bytes.data(), bytes.size());
  ParsePrefix();
  return error_;
}

bool FrameDecoder::Next(std::string* frame) {
  ParsePrefix();
  if (!error_.ok() || !have_len_ || buffered_bytes() < len_) return false;
  frame->assign(buf_, pos_, len_);
  pos_ += len_;
  have_len_ = false;
  // Reclaim consumed bytes once they dominate the buffer, so a long-lived
  // connection's memory tracks its unconsumed backlog, not its history.
  if (pos_ > 4096 && pos_ >= buf_.size() - pos_) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  ParsePrefix();  // the next frame's prefix may already be buffered
  return true;
}

Status FrameDecoder::AtEnd() const {
  if (!error_.ok()) return error_;
  if (have_len_) {
    return Status::OutOfRange(
        "framing: stream ended inside a frame (" +
        std::to_string(buffered_bytes()) + " of " + std::to_string(len_) +
        " bytes)");
  }
  if (buffered_bytes() > 0) {
    return Status::OutOfRange(
        "framing: stream ended inside a length prefix (" +
        std::to_string(buffered_bytes()) + " of 4 bytes)");
  }
  return Status::OK();
}

}  // namespace numdist::serve
