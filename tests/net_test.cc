// Event-loop transport guarantees (net/*, serve/framing.h FrameDecoder):
//  - the push-mode FrameDecoder accepts/rejects EXACTLY like the pull-mode
//    ReadFrame for every stream and every adversarial chunking of it,
//  - WriteFrame emits prefix+body as one stream write,
//  - a byte stream served with AddStream (a pipe or a regular file, as
//    collector_cli's stdin/--in mode) writes acks then sketches that are
//    byte-identical to a sequential session run, fails whole on a
//    partial stream, and honors the mid-frame read deadline
//    (idle-between-frames never times out),
//  - CollectorServer multiplexes many connections into an aggregate that
//    is byte-identical to a sequential single-session run for any
//    connection count, frame distribution, or drain path, applies
//    backpressure, and survives hostile clients losing only their own
//    connection.
#include "net/server.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/mutator.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "net/client.h"
#include "net/socket.h"
#include "protocol/sharded.h"
#include "protocol/sw_protocol.h"
#include "serve/collector.h"
#include "serve/framing.h"
#include "wire/wire.h"

namespace numdist {
namespace {

// ---------------------------------------------------------------------------
// Endpoint parsing

TEST(EndpointTest, ParsesAndRoundTrips) {
  auto tcp = net::ParseEndpoint("tcp:7070").ValueOrDie();
  EXPECT_EQ(tcp.kind, net::Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "");
  EXPECT_EQ(tcp.port, 7070);

  auto tcp_host = net::ParseEndpoint("tcp:127.0.0.1:80").ValueOrDie();
  EXPECT_EQ(tcp_host.host, "127.0.0.1");
  EXPECT_EQ(tcp_host.port, 80);
  EXPECT_EQ(net::EndpointName(tcp_host), "tcp:127.0.0.1:80");

  auto unix_ep = net::ParseEndpoint("unix:/tmp/x.sock").ValueOrDie();
  EXPECT_EQ(unix_ep.kind, net::Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep.path, "/tmp/x.sock");
  EXPECT_EQ(net::EndpointName(unix_ep), "unix:/tmp/x.sock");
}

TEST(EndpointTest, RejectsMalformedSpecs) {
  EXPECT_EQ(net::ParseEndpoint("http://x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(net::ParseEndpoint("tcp:").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(net::ParseEndpoint("tcp:host:99999").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(net::ParseEndpoint("tcp:1.2.3.4:no").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(net::ParseEndpoint("unix:").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      net::ParseEndpoint("unix:/" + std::string(200, 'a')).status().code(),
      StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Pull/push decoder equivalence (the wire-compat contract of FrameDecoder)

struct DecodeOutcome {
  std::vector<std::string> frames;
  Status final;
};

DecodeOutcome PullDecode(const std::string& bytes, size_t max_bytes) {
  DecodeOutcome outcome;
  std::stringstream in(bytes);
  std::string frame;
  bool eof = false;
  while (true) {
    outcome.final = serve::ReadFrame(in, &frame, &eof, max_bytes);
    if (!outcome.final.ok() || eof) break;
    outcome.frames.push_back(frame);
  }
  return outcome;
}

DecodeOutcome PushDecode(const std::string& bytes, size_t chunk,
                         size_t max_bytes) {
  DecodeOutcome outcome;
  serve::FrameDecoder decoder(max_bytes);
  std::string frame;
  for (size_t off = 0; off < bytes.size(); off += chunk) {
    const Status fed = decoder.Feed(
        std::string_view(bytes).substr(off, std::min(chunk,
                                                     bytes.size() - off)));
    while (decoder.Next(&frame)) outcome.frames.push_back(frame);
    if (!fed.ok()) {
      outcome.final = fed;
      return outcome;
    }
  }
  while (decoder.Next(&frame)) outcome.frames.push_back(frame);
  outcome.final = decoder.AtEnd();
  return outcome;
}

void ExpectDecodersAgree(const std::string& bytes, size_t max_bytes) {
  const DecodeOutcome pull = PullDecode(bytes, max_bytes);
  // Byte-at-a-time is the most adversarial split; a few coprime chunk
  // sizes cover prefix/body straddles at every alignment.
  for (size_t chunk : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                       size_t{64}, bytes.empty() ? size_t{1} : bytes.size()}) {
    const DecodeOutcome push = PushDecode(bytes, chunk, max_bytes);
    ASSERT_EQ(pull.frames, push.frames) << "chunk=" << chunk;
    EXPECT_EQ(pull.final.code(), push.final.code()) << "chunk=" << chunk;
    EXPECT_EQ(pull.final.message(), push.final.message())
        << "chunk=" << chunk;
  }
}

std::string EncodeFrames(const std::vector<std::string>& frames) {
  std::stringstream out;
  for (const std::string& frame : frames) {
    EXPECT_TRUE(serve::WriteFrame(out, frame).ok());
  }
  return out.str();
}

TEST(FrameDecoderTest, AgreesWithReadFrameOnCleanStreams) {
  ExpectDecodersAgree("", serve::kMaxFrameBytes);
  ExpectDecodersAgree(EncodeFrames({"hello"}), serve::kMaxFrameBytes);
  ExpectDecodersAgree(EncodeFrames({"", "a", std::string(5000, 'x'), ""}),
                      serve::kMaxFrameBytes);
}

TEST(FrameDecoderTest, AgreesWithReadFrameOnEveryTruncation) {
  const std::string encoded =
      EncodeFrames({"first-frame", "", std::string(300, 'y')});
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    ExpectDecodersAgree(encoded.substr(0, cut), serve::kMaxFrameBytes);
  }
}

TEST(FrameDecoderTest, AgreesWithReadFrameOnHostilePrefixes) {
  // 4 GiB claimed up front; also hostile after a valid frame, and a
  // truncated hostile prefix (which must read as mid-prefix EOF instead).
  const std::string hostile = "\xFF\xFF\xFF\xFF";
  ExpectDecodersAgree(hostile, serve::kMaxFrameBytes);
  ExpectDecodersAgree(EncodeFrames({"ok"}) + hostile, serve::kMaxFrameBytes);
  ExpectDecodersAgree(hostile.substr(0, 2), serve::kMaxFrameBytes);
  // A frame over a small explicit limit is hostile for both decoders.
  ExpectDecodersAgree(EncodeFrames({std::string(100, 'z')}), 50);
  ExpectDecodersAgree(EncodeFrames({"ok", std::string(100, 'z')}), 50);
}

TEST(FrameDecoderTest, MidFrameReflectsPartialState) {
  serve::FrameDecoder decoder;
  EXPECT_FALSE(decoder.mid_frame());
  ASSERT_TRUE(decoder.Feed(std::string("\x05", 1)).ok());
  EXPECT_TRUE(decoder.mid_frame());  // inside the prefix
  ASSERT_TRUE(decoder.Feed(std::string("\x00\x00\x00", 3)).ok());
  EXPECT_TRUE(decoder.mid_frame());  // prefix consumed, body pending
  ASSERT_TRUE(decoder.Feed("hello").ok());
  std::string frame;
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(frame, "hello");
  EXPECT_FALSE(decoder.mid_frame());
  EXPECT_TRUE(decoder.AtEnd().ok());
}

// ---------------------------------------------------------------------------
// WriteFrame write coalescing

class CountingBuf : public std::stringbuf {
 public:
  int writes = 0;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    ++writes;
    return std::stringbuf::xsputn(s, n);
  }
};

TEST(FramingTest, WriteFrameIsOneStreamWrite) {
  CountingBuf buf;
  std::ostream out(&buf);
  ASSERT_TRUE(serve::WriteFrame(out, "payload-bytes").ok());
  EXPECT_EQ(buf.writes, 1);
  // And the coalesced bytes still decode.
  std::stringstream in(buf.str());
  std::string frame;
  bool eof = false;
  ASSERT_TRUE(serve::ReadFrame(in, &frame, &eof).ok());
  EXPECT_EQ(frame, "payload-bytes");
}

// ---------------------------------------------------------------------------
// Shared fixture: deterministic report frames + the sequential reference

struct NetFixture {
  wire::MethodSpec spec;
  ProtocolPtr protocol;
  std::vector<std::string> frames;
  std::string reference_sketch;
  uint64_t total_reports = 0;
};

NetFixture MakeNetFixture(size_t num_values, size_t shard_size) {
  NetFixture fx;
  fx.spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  fx.protocol = wire::MakeProtocolForSpec(fx.spec).ValueOrDie();
  const std::vector<double> values = GoldenRatioValues(num_values);
  const size_t num_shards = (values.size() + shard_size - 1) / shard_size;
  for (size_t i = 0; i < num_shards; ++i) {
    const size_t begin = i * shard_size;
    const size_t len = std::min(shard_size, values.size() - begin);
    Rng rng(ShardSeed(7, i));
    auto chunk = fx.protocol
                     ->EncodePerturbBatch(
                         std::span<const double>(values).subspan(begin, len),
                         rng)
                     .ValueOrDie();
    std::string frame;
    EXPECT_TRUE(
        wire::EncodeReportFrame(fx.spec, *fx.protocol, *chunk, &frame).ok());
    fx.frames.push_back(std::move(frame));
    fx.total_reports += chunk->num_reports();
  }
  auto reference = serve::CollectorSession::Make(fx.spec).ValueOrDie();
  for (const std::string& frame : fx.frames) {
    EXPECT_TRUE(reference.HandleFrame(frame).ok());
  }
  fx.reference_sketch = reference.EncodeSketch().ValueOrDie();
  return fx;
}

// ---------------------------------------------------------------------------
// Byte streams (CollectorServer::AddStream)

enum class StreamKind { kPipe, kFile };

const char* KindName(StreamKind kind) {
  return kind == StreamKind::kPipe ? "pipe" : "regular file";
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

struct StreamRun {
  Status status;
  /// Everything written to the stream's output: acks while serving, then
  /// (when Run succeeded) the sketch frames — collector_cli's stdout.
  std::string out;
  uint64_t reports = 0;
};

// Serves `input` as the one stream of a listener-less server, the way
// collector_cli runs without --listen. A pipe is fed by a writer thread;
// a regular file is the shape epoll refuses. Output goes to a regular
// file, like --out.
StreamRun RunStream(const wire::MethodSpec& spec, const std::string& input,
                    StreamKind kind, net::ServerOptions options = {}) {
  std::signal(SIGPIPE, SIG_IGN);  // a failed run closes the pipe early
  options.drain_on_disconnect = true;
  auto server = net::CollectorServer::Make(spec, options).ValueOrDie();
  const std::string out_path = testing::TempDir() + "net_test_stream.out";
  const int out_fd =
      open(out_path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
  EXPECT_GE(out_fd, 0);
  int in_fd = -1;
  std::thread writer;
  if (kind == StreamKind::kFile) {
    const std::string in_path = testing::TempDir() + "net_test_stream.in";
    std::ofstream(in_path, std::ios::binary | std::ios::trunc) << input;
    in_fd = open(in_path.c_str(), O_RDONLY | O_CLOEXEC);
  } else {
    int fds[2];
    EXPECT_EQ(pipe(fds), 0);
    in_fd = fds[0];
    writer = std::thread([&input, wfd = fds[1]] {
      // Stops at EPIPE once a failed run closes the read end.
      (void)net::WriteAll(wfd, input);
      close(wfd);
    });
  }
  EXPECT_GE(in_fd, 0);
  StreamRun run;
  run.status = server->AddStream(in_fd, out_fd);
  if (run.status.ok()) run.status = server->Run();
  close(in_fd);
  if (writer.joinable()) writer.join();
  if (run.status.ok()) {
    for (const std::string& sketch : server->EncodeSketches().ValueOrDie()) {
      std::string framed;
      serve::AppendFramePrefix(sketch.size(), &framed);
      framed.append(sketch);
      EXPECT_TRUE(net::WriteAll(out_fd, framed).ok());
    }
    run.reports = server->num_reports();
  }
  close(out_fd);
  run.out = ReadFileBytes(out_path);
  return run;
}

constexpr StreamKind kStreamKinds[] = {StreamKind::kPipe, StreamKind::kFile};

TEST(AddStreamTest, ByteCompatibleWithASequentialSession) {
  const NetFixture fx = MakeNetFixture(4000, 512);
  for (const StreamKind kind : kStreamKinds) {
    SCOPED_TRACE(KindName(kind));
    const StreamRun run = RunStream(fx.spec, EncodeFrames(fx.frames), kind);
    ASSERT_TRUE(run.status.ok()) << run.status.message();
    EXPECT_EQ(run.out, EncodeFrames({fx.reference_sketch}));
    EXPECT_EQ(run.reports, fx.total_reports);
  }
}

// A stream carries a whole shard: a partial one fails Run and leaves the
// output empty, whichever way it is cut.
TEST(AddStreamTest, PartialOrHostileStreamFailsAndWritesNothing) {
  const NetFixture fx = MakeNetFixture(1200, 512);
  const std::string input = EncodeFrames(fx.frames);
  for (const StreamKind kind : kStreamKinds) {
    SCOPED_TRACE(KindName(kind));
    const StreamRun cut = RunStream(fx.spec, input.substr(0, input.size() - 3),
                                    kind);
    EXPECT_EQ(cut.status.code(), StatusCode::kOutOfRange)
        << cut.status.ToString();
    EXPECT_TRUE(cut.out.empty());
    const StreamRun hostile =
        RunStream(fx.spec, EncodeFrames({fx.frames[0]}) + "\xFF\xFF\xFF\xFF",
                  kind);
    EXPECT_EQ(hostile.status.code(), StatusCode::kInvalidArgument)
        << hostile.status.ToString();
    EXPECT_TRUE(hostile.out.empty());
    const StreamRun invalid =
        RunStream(fx.spec, EncodeFrames({fx.frames[0], "not a frame"}), kind);
    EXPECT_FALSE(invalid.status.ok());
    EXPECT_TRUE(invalid.out.empty());
  }
}

// A stream that breaks on a bad frame leaves the log holding exactly the
// frames before it, even those that shared its batch with later frames.
TEST(AddStreamTest, FailedStreamLogsOnlyItsPrefix) {
  const NetFixture fx = MakeNetFixture(1200, 300);
  ASSERT_EQ(fx.frames.size(), 4u);
  const std::string input = EncodeFrames(
      {fx.frames[0], fx.frames[1], "not a frame", fx.frames[2], fx.frames[3]});
  const std::string path = testing::TempDir() + "net_stream_prefix.wal";
  for (const StreamKind kind : kStreamKinds) {
    SCOPED_TRACE(KindName(kind));
    std::remove(path.c_str());
    net::ServerOptions options;
    options.wal_path = path;
    const StreamRun run = RunStream(fx.spec, input, kind, options);
    EXPECT_EQ(run.status.code(), StatusCode::kInvalidArgument)
        << run.status.ToString();
    std::vector<std::string> logged;
    serve::WalConsumer consumer;
    consumer.on_frame = [&](std::string_view frame) {
      logged.emplace_back(frame);
      return Status::OK();
    };
    ASSERT_TRUE(serve::ReplayWal(path, consumer).ok());
    EXPECT_EQ(logged, (std::vector<std::string>{fx.frames[0], fx.frames[1]}));
  }
  std::remove(path.c_str());
}

TEST(AddStreamTest, FullCollectorLifecycle) {
  const std::vector<double> values = GoldenRatioValues(8000);
  const auto spec = wire::ParseMethodSpec("cfo-olh-16", 1.0, 64).ValueOrDie();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();

  // Client side: report frames onto the stream.
  std::vector<std::string> frames;
  const size_t shard_size = 2048;
  const size_t num_shards = (values.size() + shard_size - 1) / shard_size;
  for (size_t i = 0; i < num_shards; ++i) {
    const size_t begin = i * shard_size;
    const size_t len = std::min(shard_size, values.size() - begin);
    Rng rng(ShardSeed(3, i));
    auto chunk = protocol
                     ->EncodePerturbBatch(
                         std::span<const double>(values).subspan(begin, len),
                         rng)
                     .ValueOrDie();
    std::string frame;
    ASSERT_TRUE(wire::EncodeReportFrame(spec, *protocol, *chunk, &frame).ok());
    frames.push_back(frame);
  }
  ShardOptions opts;
  opts.shard_size = shard_size;
  auto reference = RunProtocolSharded(*protocol, values, 3, opts).ValueOrDie();

  for (const StreamKind kind : kStreamKinds) {
    SCOPED_TRACE(KindName(kind));
    const StreamRun run = RunStream(spec, EncodeFrames(frames), kind);
    ASSERT_TRUE(run.status.ok()) << run.status.message();
    EXPECT_EQ(run.reports, values.size());

    // Coordinator reads the emitted sketch frame and reconstructs.
    std::stringstream collector_to_coordinator(run.out);
    std::string sketch;
    bool eof = false;
    ASSERT_TRUE(
        serve::ReadFrame(collector_to_coordinator, &sketch, &eof).ok());
    ASSERT_FALSE(eof);
    auto coordinator = serve::CollectorSession::Make(spec).ValueOrDie();
    ASSERT_TRUE(coordinator.HandleFrame(sketch).ok());
    EXPECT_EQ(coordinator.Reconstruct().ValueOrDie().distribution,
              reference.distribution);

    // A truncated stream must error out, not emit a sketch.
    const StreamRun partial =
        RunStream(spec, std::string("\x08\x00\x00\x00half", 8), kind);
    EXPECT_FALSE(partial.status.ok());
    EXPECT_TRUE(partial.out.empty());
  }
}

// The stdio leg of the exactly-once contract: every sequenced frame is
// acknowledged in arrival order, a duplicate is re-acked without
// re-absorbing, and the final sketch is byte-identical to a sequence-free
// run over the same payloads.
TEST(AddStreamTest, SequencedFramesAreAckedAndDeduplicated) {
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();

  // Three distinct payload frames; the stamped copies carry epoch 21,
  // seqs 1..3.
  std::vector<std::string> plain;
  for (uint64_t i = 0; i < 3; ++i) {
    Rng rng(ShardSeed(31, i));
    auto chunk =
        protocol->EncodePerturbBatch(GoldenRatioValues(40), rng).ValueOrDie();
    std::string frame;
    ASSERT_TRUE(
        wire::EncodeReportFrame(spec, *protocol, *chunk, &frame).ok());
    plain.push_back(frame);
  }
  std::vector<std::string> stamped = plain;
  for (size_t i = 0; i < stamped.size(); ++i) {
    ASSERT_TRUE(wire::StampSequenceContext(&stamped[i],
                                           {.epoch = 21, .seq = i + 1})
                    .ok());
  }
  auto reference = serve::CollectorSession::Make(spec).ValueOrDie();
  for (const std::string& frame : plain) {
    ASSERT_TRUE(reference.HandleFrame(frame).ok());
  }
  const std::string reference_sketch = reference.EncodeSketch().ValueOrDie();

  // Seq 2 re-sent mid-stream: the lost-ack retry shape.
  const std::string input =
      EncodeFrames({stamped[0], stamped[1], stamped[1], stamped[2]});
  for (const StreamKind kind : kStreamKinds) {
    SCOPED_TRACE(KindName(kind));
    const StreamRun run = RunStream(spec, input, kind);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_EQ(run.reports, 120u) << "the duplicate must not absorb";

    // Output: four acks (1, 2, 2 again, 3), then the sketch, then EOF.
    std::stringstream out(run.out);
    std::string frame;
    bool eof = false;
    for (const uint64_t expected : {1u, 2u, 2u, 3u}) {
      ASSERT_TRUE(serve::ReadFrame(out, &frame, &eof).ok());
      ASSERT_FALSE(eof);
      const auto ack = wire::DecodeAckFrame(frame);
      ASSERT_TRUE(ack.ok()) << ack.status().ToString();
      EXPECT_EQ(ack->epoch, 21u);
      EXPECT_EQ(ack->seq, expected);
    }
    ASSERT_TRUE(serve::ReadFrame(out, &frame, &eof).ok());
    ASSERT_FALSE(eof);
    EXPECT_EQ(frame, reference_sketch)
        << "sequencing must not perturb the sketch bytes";
    ASSERT_TRUE(serve::ReadFrame(out, &frame, &eof).ok());
    EXPECT_TRUE(eof);
  }
}

// A regular file whose size is a whole number of read buffers (64 KiB)
// reads its EOF in the same round as its last frames; the stream must
// stay open until their acks are written.
TEST(AddStreamTest, EofReadWithTheLastFramesStillAcksThem) {
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  const auto stamped = [&](size_t reports, uint64_t seq) {
    Rng rng(ShardSeed(41, seq));
    auto chunk = protocol->EncodePerturbBatch(GoldenRatioValues(reports), rng)
                     .ValueOrDie();
    std::string frame;
    EXPECT_TRUE(
        wire::EncodeReportFrame(spec, *protocol, *chunk, &frame).ok());
    EXPECT_TRUE(
        wire::StampSequenceContext(&frame, {.epoch = 5, .seq = seq}).ok());
    return frame;
  };
  // A frame is a fixed head plus its reports' packed 5-bit bucket
  // indices, and floor(8 R / 5) reports pack into exactly R bytes: solve
  // for four frames that fill exactly 64 KiB with their length prefixes.
  const unsigned width = 5;
  ASSERT_EQ(SwEstimatorOf(*protocol)->output_buckets(), 32u);
  const size_t head = 4 + stamped(0, 1).size();
  const size_t bytes = 64 * 1024;
  const size_t packed = bytes - 4 * head;
  size_t reports = 0;
  std::vector<std::string> frames;
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    const size_t frame_packed = seq < 4 ? packed / 4 : packed - 3 * (packed / 4);
    const size_t frame_reports = frame_packed * 8 / width;
    ASSERT_EQ(PackedBytes(frame_reports, width), frame_packed);
    frames.push_back(stamped(frame_reports, seq));
    reports += frame_reports;
  }
  const std::string input = EncodeFrames(frames);
  ASSERT_EQ(input.size(), bytes);

  const StreamRun run = RunStream(spec, input, StreamKind::kFile);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.reports, reports);
  std::stringstream out(run.out);
  std::string frame;
  bool eof = false;
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    ASSERT_TRUE(serve::ReadFrame(out, &frame, &eof).ok());
    ASSERT_FALSE(eof);
    const auto ack = wire::DecodeAckFrame(frame);
    ASSERT_TRUE(ack.ok()) << "seq " << seq << ": " << ack.status().ToString();
    EXPECT_EQ(ack->seq, seq);
  }
}

TEST(AddStreamTest, MidFrameStallHitsTheDeadline) {
  const NetFixture fx = MakeNetFixture(600, 512);
  const std::string input = EncodeFrames({fx.frames[0]});
  net::ServerOptions options;
  options.read_timeout_ms = 50;
  options.drain_on_disconnect = true;
  auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // Half a frame, then silence: the deadline must fire as the same typed
  // OutOfRange a mid-frame EOF produces.
  ASSERT_GT(write(fds[1], input.data(), input.size() / 2), 0);
  ASSERT_TRUE(server->AddStream(fds[0], -1).ok());
  const Status st = server->Run();
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  EXPECT_NE(st.message().find("timed out"), std::string::npos)
      << st.message();
  close(fds[0]);
  close(fds[1]);

  // A regular file cannot stall: the same half frame is a mid-frame EOF.
  const StreamRun file = RunStream(fx.spec, input.substr(0, input.size() / 2),
                                   StreamKind::kFile, options);
  EXPECT_EQ(file.status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(file.status.message().find("timed out"), std::string::npos)
      << file.status.message();
}

TEST(AddStreamTest, IdleBetweenFramesNeverTimesOut) {
  const NetFixture fx = MakeNetFixture(600, 600);
  const std::string input = EncodeFrames({fx.frames[0]});
  net::ServerOptions options;
  options.read_timeout_ms = 50;
  options.drain_on_disconnect = true;
  auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::thread writer([&, wfd = fds[1]] {
    ASSERT_EQ(write(wfd, input.data(), input.size()),
              static_cast<ssize_t>(input.size()));
    // Quiet client, many deadline periods long — legitimate, no timeout.
    usleep(200 * 1000);
    // The next frame in two halves: the deadline counts from the latest
    // read, not from the connection's first.
    const size_t half = input.size() / 2;
    ASSERT_EQ(write(wfd, input.data(), half), static_cast<ssize_t>(half));
    usleep(5 * 1000);
    ASSERT_EQ(write(wfd, input.data() + half, input.size() - half),
              static_cast<ssize_t>(input.size() - half));
    close(wfd);
  });
  ASSERT_TRUE(server->AddStream(fds[0], -1).ok());
  const Status st = server->Run();
  writer.join();
  close(fds[0]);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(server->num_reports(), 2 * 600u);

  // The armed deadline never fires on a regular file read to its end.
  const StreamRun file =
      RunStream(fx.spec, input + input, StreamKind::kFile, options);
  ASSERT_TRUE(file.status.ok()) << file.status.message();
  EXPECT_EQ(file.reports, 2 * 600u);
}

// ---------------------------------------------------------------------------
// CollectorServer

// Runs a server over `frames` split across `connections` MultiSender
// connections, drains it, and returns the final sketch.
std::string ServeOverConnections(const NetFixture& fx, size_t connections,
                                 net::ServerOptions options,
                                 net::ServerStats* stats_out = nullptr) {
  auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  {
    auto sender = net::MultiSender::Make(bound, connections).ValueOrDie();
    for (const std::string& frame : fx.frames) {
      EXPECT_TRUE(sender.Send(frame).ok());
    }
    EXPECT_TRUE(sender.Finish().ok());
  }
  server->RequestDrain();
  serving.join();
  EXPECT_TRUE(run_status.ok()) << run_status.message();
  EXPECT_EQ(server->num_reports(), fx.total_reports);
  if (stats_out != nullptr) *stats_out = server->stats();
  return server->EncodeSketch().ValueOrDie();
}

TEST(CollectorServerTest, AnyConnectionCountIsByteIdentical) {
  const NetFixture fx = MakeNetFixture(6000, 256);
  for (size_t connections : {size_t{1}, size_t{3}, size_t{16}}) {
    net::ServerStats stats;
    const std::string sketch =
        ServeOverConnections(fx, connections, {}, &stats);
    EXPECT_EQ(sketch, fx.reference_sketch)
        << connections << " connections";
    EXPECT_EQ(stats.connections_accepted, connections);
    EXPECT_EQ(stats.frames_absorbed, fx.frames.size());
    EXPECT_EQ(stats.connection_errors, 0u);
  }
}

TEST(CollectorServerTest, BackpressurePausesAndStillAbsorbsEverything) {
  const NetFixture fx = MakeNetFixture(6000, 128);
  net::ServerOptions options;
  options.pause_bytes = 1024;  // far below one reactor round's worth
  net::ServerStats stats;
  const std::string sketch = ServeOverConnections(fx, 2, options, &stats);
  EXPECT_EQ(sketch, fx.reference_sketch);
  EXPECT_GT(stats.pauses, 0u);
}

TEST(CollectorServerTest, ExpectFramesStopsTheServerByItself) {
  const NetFixture fx = MakeNetFixture(3000, 256);
  net::ServerOptions options;
  options.expect_frames = fx.frames.size();
  auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  auto sender = net::MultiSender::Make(bound, 4).ValueOrDie();
  for (const std::string& frame : fx.frames) {
    ASSERT_TRUE(sender.Send(frame).ok());
  }
  ASSERT_TRUE(sender.Finish().ok());
  // No RequestDrain: the frame count is the stop condition.
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.message();
  EXPECT_EQ(server->EncodeSketch().ValueOrDie(), fx.reference_sketch);
}

TEST(CollectorServerTest, UnixListenerIsByteIdentical) {
  const NetFixture fx = MakeNetFixture(2000, 256);
  const std::string path = testing::TempDir() + "net_test_collector.sock";
  auto server = net::CollectorServer::Make(fx.spec).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("unix:" + path).ValueOrDie())
          .ValueOrDie();
  EXPECT_EQ(bound.path, path);
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  {
    auto sender = net::MultiSender::Make(bound, 3).ValueOrDie();
    for (const std::string& frame : fx.frames) {
      ASSERT_TRUE(sender.Send(frame).ok());
    }
    ASSERT_TRUE(sender.Finish().ok());
  }
  server->RequestDrain();
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.message();
  EXPECT_EQ(server->EncodeSketch().ValueOrDie(), fx.reference_sketch);
}

TEST(CollectorServerTest, WalFailureNeverAcksNonDurableFrames) {
  // An ack is a durability promise: after a WAL append failure the batch's
  // acks must be suppressed and Run must return the error, so clients
  // retransmit into the recovered log instead of retiring frames the
  // replay cannot reproduce. Deleting the segment directory out from
  // under a tiny-segment WAL makes the very first append fail at
  // rotation, after the frames were absorbed in memory. With a second
  // connection re-sending the same frames, the batch also holds a
  // duplicate of every frame, and those must not be acked either.
  NetFixture fx = MakeNetFixture(600, 256);
  for (size_t i = 0; i < fx.frames.size(); ++i) {
    ASSERT_TRUE(wire::StampSequenceContext(&fx.frames[i],
                                           {.epoch = 11, .seq = i + 1})
                    .ok());
  }
  const std::string bytes = EncodeFrames(fx.frames);
  for (const size_t connections : {1u, 2u}) {
    SCOPED_TRACE(testing::Message() << "connections=" << connections);
    const std::string dir = testing::TempDir() + "net_wal_fail_acks";
    std::filesystem::remove_all(dir);
    net::ServerOptions options;
    options.wal_path = dir;
    options.wal.segment_bytes = 1;  // every append seals and rolls
    auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
    const net::Endpoint bound =
        server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
            .ValueOrDie();
    std::filesystem::remove_all(dir);
    // Everything is written before Run, so one batch holds every copy.
    std::vector<net::Fd> clients;
    for (size_t c = 0; c < connections; ++c) {
      clients.push_back(net::Dial(bound).ValueOrDie());
      ASSERT_TRUE(net::WriteAll(clients.back().get(), bytes).ok());
    }
    EXPECT_FALSE(server->Run().ok()) << "the WAL failure must be fatal to Run";
    EXPECT_EQ(server->stats().acks_queued, 0u)
        << "no ack may cover a frame the log does not hold";
    server.reset();  // closes the connections so the reads below terminate
    for (const net::Fd& client : clients) {
      char buf[256];
      size_t acked_bytes = 0;
      for (;;) {
        const ssize_t got = read(client.get(), buf, sizeof(buf));
        if (got > 0) {
          acked_bytes += static_cast<size_t>(got);
          continue;
        }
        break;  // EOF or reset — nothing more is coming either way
      }
      EXPECT_EQ(acked_bytes, 0u)
          << "a non-durable frame's ack reached the client";
    }
  }
}

// A re-send of a frame that fails in the same batch is never acked: the
// copy that claimed the id is over budget and releases its claim, so the
// later copy, skipped as a duplicate, finds nothing absorbed to ack. Both
// connections write before Run, so every repetition puts both copies in
// one batch.
TEST(CollectorServerTest, ResendOfAFrameRejectedInTheSameBatchIsNotAcked) {
  NetFixture fx = MakeNetFixture(200, 200);
  ASSERT_EQ(fx.frames.size(), 1u);
  ASSERT_TRUE(
      wire::StampSequenceContext(&fx.frames[0], {.epoch = 4, .seq = 1}).ok());
  const std::string bytes = EncodeFrames(fx.frames);
  for (int rep = 0; rep < 40; ++rep) {
    SCOPED_TRACE(testing::Message() << "rep=" << rep);
    auto server = net::CollectorServer::Make(fx.spec).ValueOrDie();
    server->SetTenantBudget(wire::kDefaultTenant, {.max_reports = 1});
    const net::Endpoint bound =
        server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
            .ValueOrDie();
    std::vector<net::Fd> clients;
    for (int c = 0; c < 2; ++c) {
      clients.push_back(net::Dial(bound).ValueOrDie());
      ASSERT_TRUE(net::WriteAll(clients.back().get(), bytes).ok());
      ASSERT_EQ(::shutdown(clients.back().get(), SHUT_WR), 0);
    }
    server->RequestDrain();  // serve the accepted backlog to EOF
    ASSERT_TRUE(server->Run().ok());
    const net::ServerStats& stats = server->stats();
    EXPECT_EQ(stats.duplicates, 1u) << "both copies must meet in one batch";
    EXPECT_EQ(stats.connection_errors, 1u);
    EXPECT_EQ(stats.frames_absorbed, 0u);
    EXPECT_EQ(stats.acks_queued, 0u)
        << "the re-send of a rejected frame was acked";
  }
}

// The checkpoint cadence (WalOptions::checkpoint_every_frames) compacts
// the log while serving: once frame 4's ack is back at a cadence of 2, the
// log holds a checkpoint and replays to exactly the acked frames.
TEST(CollectorServerTest, WalCheckpointCadenceCompactsWhileServing) {
  NetFixture fx = MakeNetFixture(800, 200);
  ASSERT_EQ(fx.frames.size(), 4u);
  for (size_t i = 0; i < fx.frames.size(); ++i) {
    ASSERT_TRUE(wire::StampSequenceContext(&fx.frames[i],
                                           {.epoch = 3, .seq = i + 1})
                    .ok());
  }
  const std::string path = testing::TempDir() + "net_wal_cadence.wal";
  std::remove(path.c_str());
  net::ServerOptions options;
  options.wal_path = path;
  options.wal.checkpoint_every_frames = 2;
  auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  net::Fd client = net::Dial(bound).ValueOrDie();
  // One frame per round: send, then wait for its ack.
  for (size_t i = 0; i < fx.frames.size(); ++i) {
    ASSERT_TRUE(net::WriteAll(client.get(), EncodeFrames({fx.frames[i]})).ok());
    std::string ack(4 + 24, '\0');
    size_t got = 0;
    while (got < ack.size()) {
      const ssize_t n = read(client.get(), ack.data() + got, ack.size() - got);
      ASSERT_GT(n, 0) << "connection closed before the ack";
      got += static_cast<size_t>(n);
    }
    const auto decoded = wire::DecodeAckFrame(ack.substr(4));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->seq, i + 1);
  }

  // Read the log while the server still holds it open.
  auto replayed = serve::CollectorSession::Make(fx.spec).ValueOrDie();
  serve::WalConsumer consumer;
  consumer.on_frame = [&](std::string_view frame) {
    return replayed.HandleFrame(frame);
  };
  consumer.on_checkpoint = [&](const std::vector<std::string>& sketches) {
    return replayed.ResetToSketches(sketches);
  };
  const auto stats = serve::ReplayWal(path, consumer);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->checkpoints, 1u);
  EXPECT_EQ(replayed.EncodeSketch().ValueOrDie(), fx.reference_sketch);

  client.reset();
  server->RequestDrain();
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.message();
  std::remove(path.c_str());
}

TEST(CollectorServerTest, HostileClientLosesOnlyItsOwnConnection) {
  const NetFixture fx = MakeNetFixture(2000, 256);
  auto server = net::CollectorServer::Make(fx.spec).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  {
    // A raw connection claiming a 4 GiB frame...
    net::Fd hostile = net::Dial(bound).ValueOrDie();
    ASSERT_TRUE(net::WriteAll(hostile.get(), "\xFF\xFF\xFF\xFF").ok());
    // ...while a well-behaved sender delivers the real workload.
    auto sender = net::MultiSender::Make(bound, 2).ValueOrDie();
    for (const std::string& frame : fx.frames) {
      ASSERT_TRUE(sender.Send(frame).ok());
    }
    ASSERT_TRUE(sender.Finish().ok());
    // Give the server a moment to have rejected the hostile prefix, then
    // drain (hostile fd closes with this scope).
  }
  server->RequestDrain();
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.message();
  EXPECT_EQ(server->stats().connection_errors, 1u);
  EXPECT_EQ(server->stats().first_error.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server->EncodeSketch().ValueOrDie(), fx.reference_sketch);
}

// The read deadline on a listener: a client stalled mid-frame loses its
// connection to the typed timeout; everyone else's frames still land.
TEST(CollectorServerTest, MidFrameStallLosesOnlyThatConnection) {
  const NetFixture fx = MakeNetFixture(2000, 256);
  net::ServerOptions options;
  options.read_timeout_ms = 50;
  auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  net::Fd stalled = net::Dial(bound).ValueOrDie();
  const std::string half = EncodeFrames({fx.frames[0]});
  ASSERT_TRUE(
      net::WriteAll(stalled.get(), half.substr(0, half.size() / 2)).ok());
  {
    auto sender = net::MultiSender::Make(bound, 2).ValueOrDie();
    for (const std::string& frame : fx.frames) {
      EXPECT_TRUE(sender.Send(frame).ok());
    }
    EXPECT_TRUE(sender.Finish().ok());
  }
  // The drain waits for the stalled connection until its deadline drops it.
  server->RequestDrain();
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.message();
  EXPECT_EQ(server->stats().connection_errors, 1u);
  EXPECT_EQ(server->stats().first_error.code(), StatusCode::kOutOfRange);
  EXPECT_NE(server->stats().first_error.message().find("timed out"),
            std::string::npos);
  EXPECT_EQ(server->EncodeSketch().ValueOrDie(), fx.reference_sketch);
}

TEST(CollectorServerTest, FuzzedHostileConnectionsCannotTouchTheSketch) {
  // Stronger hostile-client isolation: instead of one hand-built bad
  // prefix, each hostile connection streams a ByteMutator-corrupted frame
  // (the same structured mutants the fuzz harness drives through the
  // decoders) while clean senders deliver the real workload concurrently.
  // Every hostile connection must die with a typed error, and the final
  // sketch must be byte-identical to the clean reference — hostile bytes
  // cannot move counts even when they arrive over the real transport.
  const NetFixture fx = MakeNetFixture(2000, 256);

  // Pre-select mutants a CollectorSession provably rejects (a payload bit
  // flip can be a valid frame; those are not "hostile" for this test).
  std::vector<std::string> hostile_frames;
  ByteMutator mutator(0x94D049BB133111EBULL);
  auto probe = serve::CollectorSession::Make(fx.spec).ValueOrDie();
  while (hostile_frames.size() < 6) {
    std::string mutant = mutator.Mutate(fx.frames[0]);
    if (!probe.HandleFrame(mutant).ok()) {
      hostile_frames.push_back(std::move(mutant));
    }
  }

  auto server = net::CollectorServer::Make(fx.spec).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  {
    // One raw connection per hostile mutant, properly length-framed so the
    // corruption lands in the wire decoder, not the transport prefix.
    std::vector<net::Fd> hostile;
    for (const std::string& frame : hostile_frames) {
      std::ostringstream framed;
      ASSERT_TRUE(serve::WriteFrame(framed, frame).ok());
      net::Fd fd = net::Dial(bound).ValueOrDie();
      ASSERT_TRUE(net::WriteAll(fd.get(), framed.str()).ok());
      hostile.push_back(std::move(fd));
    }
    auto sender = net::MultiSender::Make(bound, 3).ValueOrDie();
    for (const std::string& frame : fx.frames) {
      ASSERT_TRUE(sender.Send(frame).ok());
    }
    ASSERT_TRUE(sender.Finish().ok());
    // Hostile fds close with this scope.
  }
  server->RequestDrain();
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.message();
  EXPECT_EQ(server->stats().connection_errors, hostile_frames.size());
  EXPECT_FALSE(server->stats().first_error.ok());
  EXPECT_EQ(server->num_reports(), fx.total_reports);
  EXPECT_EQ(server->EncodeSketch().ValueOrDie(), fx.reference_sketch);
}

TEST(CollectorServerTest, SketchFramesMergeOverTheListener) {
  // Coordinator topology: two "leaf collector" sketches arrive as frames
  // over connections; the server-side aggregate must equal merging them
  // into one session directly.
  const NetFixture fx = MakeNetFixture(4000, 256);
  auto leaf_a = serve::CollectorSession::Make(fx.spec).ValueOrDie();
  auto leaf_b = serve::CollectorSession::Make(fx.spec).ValueOrDie();
  for (size_t i = 0; i < fx.frames.size(); ++i) {
    ASSERT_TRUE(((i % 2 == 0) ? leaf_a : leaf_b)
                    .HandleFrame(fx.frames[i])
                    .ok());
  }
  const std::string sketch_a = leaf_a.EncodeSketch().ValueOrDie();
  const std::string sketch_b = leaf_b.EncodeSketch().ValueOrDie();

  net::ServerOptions options;
  options.expect_frames = 2;
  auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  for (const std::string& sketch : {sketch_a, sketch_b}) {
    auto sender = net::MultiSender::Make(bound, 1).ValueOrDie();
    ASSERT_TRUE(sender.Send(sketch).ok());
    ASSERT_TRUE(sender.Finish().ok());
  }
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.message();
  EXPECT_EQ(server->num_reports(), fx.total_reports);
  EXPECT_EQ(server->EncodeSketch().ValueOrDie(), fx.reference_sketch);
}

}  // namespace
}  // namespace numdist
