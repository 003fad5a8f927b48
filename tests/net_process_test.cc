// Cross-process network determinism (the acceptance invariant of the
// event-loop collector): real collector_cli --listen server processes fed
// by real report_client --connect --connections fleets over TCP loopback
// produce sketches byte-identical to the stdio pipeline over the same
// frames — including when SIGTERM lands mid-stream and the server has to
// drain gracefully, and for a coordinator accepting sketch frames over
// its own listener from leaf collectors dialing --out=tcp:. Tool
// locations come from CMake (NUMDIST_*_PATH); the test self-skips when
// the tools were not built.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace numdist {
namespace {

#if defined(NUMDIST_COLLECTOR_CLI_PATH) && defined(NUMDIST_REPORT_CLIENT_PATH)

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Every process run shares one deterministic workload so sketches are
// comparable across topologies.
const char kCommonFlags[] =
    " --method=sw-ems --epsilon=1.000000 --buckets=64";
const char kClientFlags[] =
    " --uniform=20000 --seed=7 --shard-size=1000";

std::string Collector() { return std::string(NUMDIST_COLLECTOR_CLI_PATH); }
std::string Client() { return std::string(NUMDIST_REPORT_CLIENT_PATH); }

// The stdio-pipeline sketch all network runs must match byte-for-byte.
std::string StdioReferenceSketch() {
  const std::string path = testing::TempDir() + "net_process_ref.sketch";
  const std::string command = "'" + Client() + "'" + kCommonFlags +
                              kClientFlags + " 2>/dev/null | '" + Collector() +
                              "'" + kCommonFlags + " --out='" + path +
                              "' 2>/dev/null";
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
  return ReadFile(path);
}

TEST(NetProcessTest, TcpMultiConnectionRunMatchesStdio) {
  const std::string port_file = testing::TempDir() + "net_process_port.txt";
  const std::string sketch = testing::TempDir() + "net_process_tcp.sketch";
  std::remove(port_file.c_str());
  // Server in the background; client over 8 TCP connections; SIGTERM
  // drains the server once the client is done.
  const std::string script =
      "'" + Collector() + "'" + kCommonFlags + " --listen=tcp:0 --port-file='" +
      port_file + "' --out='" + sketch +
      "' 2>/dev/null &\n"
      "pid=$!\n"
      "for i in $(seq 200); do [ -s '" + port_file +
      "' ] && break; sleep 0.05; done\n"
      "[ -s '" + port_file + "' ] || { kill $pid; exit 11; }\n"
      "'" + Client() + "'" + kCommonFlags + kClientFlags +
      " --connect=\"$(cat '" + port_file +
      "')\" --connections=8 2>/dev/null || exit 9\n"
      "kill -TERM $pid\n"
      "wait $pid || exit 10\n";
  ASSERT_EQ(std::system(script.c_str()), 0) << script;
  EXPECT_EQ(ReadFile(sketch), StdioReferenceSketch());
  std::remove(port_file.c_str());
  std::remove(sketch.c_str());
}

// Tenant-tagged frames: listen mode emits the same per-tenant sketch
// frames the stdio pipeline does (one tagged frame per tenant), not one
// untagged frame merging every tenant.
TEST(NetProcessTest, TenantSketchesMatchStdioOverTheListener) {
  const std::string tmp = testing::TempDir();
  const std::string stdio_sketch = tmp + "net_process_tenant_stdio.sketch";
  const std::string net_sketch = tmp + "net_process_tenant_net.sketch";
  const std::string port_file = tmp + "net_process_tenant_port.txt";
  std::remove(port_file.c_str());
  const std::string stdio =
      "'" + Client() + "'" + kCommonFlags + kClientFlags +
      " --tenant=3 2>/dev/null | '" + Collector() + "'" + kCommonFlags +
      " --out='" + stdio_sketch + "' 2>/dev/null";
  ASSERT_EQ(std::system(stdio.c_str()), 0) << stdio;
  const std::string script =
      "'" + Collector() + "'" + kCommonFlags + " --listen=tcp:0 --port-file='" +
      port_file + "' --out='" + net_sketch +
      "' 2>/dev/null &\n"
      "pid=$!\n"
      "for i in $(seq 200); do [ -s '" + port_file +
      "' ] && break; sleep 0.05; done\n"
      "[ -s '" + port_file + "' ] || { kill $pid; exit 11; }\n"
      "'" + Client() + "'" + kCommonFlags + kClientFlags +
      " --tenant=3 --connect=\"$(cat '" + port_file +
      "')\" --connections=4 2>/dev/null || exit 9\n"
      "kill -TERM $pid\n"
      "wait $pid || exit 10\n";
  ASSERT_EQ(std::system(script.c_str()), 0) << script;
  const std::string stdio_bytes = ReadFile(stdio_sketch);
  ASSERT_FALSE(stdio_bytes.empty());
  EXPECT_EQ(ReadFile(net_sketch), stdio_bytes);
  for (const std::string& p : {stdio_sketch, net_sketch, port_file}) {
    std::remove(p.c_str());
  }
}

TEST(NetProcessTest, SigtermMidStreamStillDrainsToByteIdentity) {
  const std::string port_file = testing::TempDir() + "net_process_port2.txt";
  const std::string sketch = testing::TempDir() + "net_process_drain.sketch";
  std::remove(port_file.c_str());
  // The client paces 20 frames at 20ms each (~400ms of streaming); the
  // SIGTERM lands well inside that window. A graceful drain must still
  // serve every open connection to EOF, so the sketch contains ALL
  // frames, not just those absorbed before the signal.
  const std::string script =
      "'" + Collector() + "'" + kCommonFlags + " --listen=tcp:0 --port-file='" +
      port_file + "' --out='" + sketch +
      "' 2>/dev/null &\n"
      "pid=$!\n"
      "for i in $(seq 200); do [ -s '" + port_file +
      "' ] && break; sleep 0.05; done\n"
      "[ -s '" + port_file + "' ] || { kill $pid; exit 11; }\n"
      "'" + Client() + "'" + kCommonFlags + kClientFlags +
      " --connect=\"$(cat '" + port_file +
      "')\" --connections=3 --pace-us=20000 2>/dev/null &\n"
      "clpid=$!\n"
      "sleep 0.15\n"
      "kill -TERM $pid\n"
      "wait $clpid || exit 9\n"
      "wait $pid || exit 10\n";
  ASSERT_EQ(std::system(script.c_str()), 0) << script;
  EXPECT_EQ(ReadFile(sketch), StdioReferenceSketch());
  std::remove(port_file.c_str());
  std::remove(sketch.c_str());
}

TEST(NetProcessTest, CoordinatorAcceptsSketchesOverItsListener) {
  const std::string tmp = testing::TempDir();
  const std::string s0 = tmp + "net_process_leaf0.sketch";
  const std::string s1 = tmp + "net_process_leaf1.sketch";
  // File-based coordinator output is the reference.
  for (int k = 0; k < 2; ++k) {
    const std::string command =
        "'" + Client() + "'" + kCommonFlags + kClientFlags + " --offset=" +
        std::to_string(k) + " --stride=2 2>/dev/null | '" + Collector() +
        "'" + kCommonFlags + " --out='" + (k == 0 ? s0 : s1) +
        "' 2>/dev/null";
    ASSERT_EQ(std::system(command.c_str()), 0) << command;
  }
  const std::string file_csv = tmp + "net_process_file.csv";
  ASSERT_EQ(std::system(("'" + Collector() + "'" + kCommonFlags +
                         " --merge='" + s0 + "," + s1 + "' --csv >'" +
                         file_csv + "' 2>/dev/null")
                            .c_str()),
            0);
  // Network coordinator: leaves dial their sketches upstream over TCP.
  const std::string port_file = tmp + "net_process_coord_port.txt";
  const std::string net_csv = tmp + "net_process_net.csv";
  std::remove(port_file.c_str());
  const std::string script =
      "'" + Collector() + "'" + kCommonFlags +
      " --merge --listen=tcp:0 --port-file='" + port_file +
      "' --expect-frames=2 --csv >'" + net_csv +
      "' 2>/dev/null &\n"
      "pid=$!\n"
      "for i in $(seq 200); do [ -s '" + port_file +
      "' ] && break; sleep 0.05; done\n"
      "[ -s '" + port_file + "' ] || { kill $pid; exit 11; }\n"
      "ep=\"$(cat '" + port_file + "')\"\n"
      "'" + Client() + "'" + kCommonFlags + kClientFlags +
      " --offset=0 --stride=2 2>/dev/null | '" + Collector() + "'" +
      kCommonFlags + " --out=\"$ep\" 2>/dev/null || { kill $pid; exit 9; }\n"
      "'" + Client() + "'" + kCommonFlags + kClientFlags +
      " --offset=1 --stride=2 2>/dev/null | '" + Collector() + "'" +
      kCommonFlags + " --out=\"$ep\" 2>/dev/null || { kill $pid; exit 9; }\n"
      "wait $pid || exit 10\n";
  ASSERT_EQ(std::system(script.c_str()), 0) << script;
  EXPECT_EQ(ReadFile(net_csv), ReadFile(file_csv));
  for (const std::string& p :
       {s0, s1, file_csv, port_file, net_csv}) {
    std::remove(p.c_str());
  }
}

#else

TEST(NetProcessTest, SkippedWithoutTools) {
  GTEST_SKIP() << "collector_cli / report_client were not built "
                  "(NUMDIST_BUILD_TOOLS=OFF)";
}

#endif

}  // namespace
}  // namespace numdist
