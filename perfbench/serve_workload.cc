// serve-50k: fit a v1 single-model and a v2 E=4 ensemble snapshot (set-up),
// then serve them in process through SocketServer + ScoreService to one
// client thread holding 2 connections x 32 pipelined requests (closed
// loop). Phase A scores against v1 only; phase B sends `swap` v1<->v2
// after every 2,000 score requests. The phases alternate A, B, A, B so
// slow drift on the host lands on both alike.

#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/run_control.h"
#include "common/socket.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/scoring.h"
#include "ensemble/ensemble_detector.h"
#include "oracle.h"
#include "perfbench.h"
#include "serve/score_service.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "spans.h"

namespace hido {
namespace perfbench {

namespace {

constexpr size_t kConnections = 2;
constexpr size_t kInFlight = 32;            // per connection
constexpr size_t kSwapEvery = 2000;         // score requests between swaps
constexpr size_t kDistinctRequests = 4096;  // request lines cycled through
constexpr double kRequestTimeoutSeconds = 5.0;
constexpr int kSlices = 8;  // timed phase slices, half A and half B

// The response without its trailing " gen=<g>" field, and that generation.
// False unless the response ends in that field with a decimal <g>.
bool SplitGen(const std::string& response, std::string* body, uint64_t* gen) {
  const size_t at = response.rfind(" gen=");
  if (at == std::string::npos) return false;
  const char* digits = response.c_str() + at + 5;
  char* end = nullptr;
  *gen = std::strtoull(digits, &end, 10);
  if (end == digits || *end != '\0' || *digits == '-' || *digits == '+') {
    return false;
  }
  *body = response.substr(0, at);
  return true;
}

struct Pending {
  bool swap = false;
  size_t line = 0;  // index into the distinct request lines
  double sent_at = 0.0;
};

struct Connection {
  OwnedFd fd;
  std::string in;
  std::string out;
  std::deque<Pending> pending;
};

// Closed-loop pipelined client plus its response oracle. Generations are
// assigned by the served ScoreService in publish order: v1 is published
// first (gen 1) and every swap this client sends alternates the model, so
// gen g serves v2 exactly when g is even.
class Client {
 public:
  Client(int port, const std::vector<std::string>& lines,
         const std::vector<std::string>& expected_v1,
         const std::vector<std::string>& expected_v2,
         const std::string& v1_path, const std::string& v2_path,
         bool corrupt_one)
      : port_(port),
        lines_(lines),
        expected_{&expected_v1, &expected_v2},
        swap_lines_{"swap " + v1_path, "swap " + v2_path},
        corrupt_one_(corrupt_one) {}

  Status Connect() {
    for (Connection& conn : conns_) {
      Status status = Reconnect(&conn);
      if (!status.ok()) return status;
    }
    return Status::Ok();
  }

  // Sends `line` on connection 0 and waits for its answer (untimed use;
  // nothing else may be outstanding).
  Result<std::string> Exchange(const std::string& line) {
    Connection& conn = conns_[0];
    const Status sent = WriteAll(conn.fd.get(), line + "\n");
    if (!sent.ok()) return sent;
    const double deadline = clock_.NowSeconds() + kRequestTimeoutSeconds;
    size_t eol = 0;
    while ((eol = conn.in.find('\n')) == std::string::npos) {
      if (clock_.NowSeconds() > deadline) {
        return Status::DeadlineExceeded("no answer to " + line);
      }
      Result<bool> ready = WaitReadable(conn.fd.get(), 100);
      if (!ready.ok()) return ready.status();
      Result<ReadOutcome> read = ReadAvailable(conn.fd.get(), &conn.in);
      if (!read.ok()) return read.status();
      if (read.value().bytes == 0) return Status::IoError("connection closed");
    }
    std::string answer = conn.in.substr(0, eol);
    conn.in.erase(0, eol + 1);
    return answer;
  }

  // Runs one phase for `seconds`: keeps kInFlight requests outstanding on
  // every connection, then drains. Returns the verified responses per
  // second of phase wall time.
  double RunPhase(bool mixed, double seconds) {
    const uint64_t verified_before = verified_;
    const double start = clock_.NowSeconds();
    while (true) {
      const double now = clock_.NowSeconds();
      const bool sending = now - start < seconds;
      bool outstanding = false;
      for (Connection& conn : conns_) {
        while (sending && conn.pending.size() < kInFlight) {
          Enqueue(&conn, mixed, now);
        }
        Flush(&conn);
        outstanding = outstanding || !conn.pending.empty();
      }
      if (!outstanding) break;
      Poll();
      ExpireTimedOut();
    }
    const double elapsed = clock_.NowSeconds() - start;
    return static_cast<double>(verified_ - verified_before) / elapsed;
  }

  // Makes v1 current again after a mixed phase (untimed).
  void RestoreV1() {
    if (swaps_sent_ % 2 == 0) return;
    ++swaps_sent_;
    ++attempted_;
    Result<std::string> answer = Exchange(swap_lines_[0]);
    if (!answer.ok() || !CheckSwap(answer.value(), swaps_sent_ + 1)) {
      ++failed_;
    } else {
      ++verified_;
    }
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  Status Reconnect(Connection* conn) {
    conn->fd.Reset();
    conn->in.clear();
    conn->out.clear();
    Result<OwnedFd> fd = ConnectTcp("127.0.0.1", port_);
    if (!fd.ok()) return fd.status();
    Status nonblocking = SetNonBlocking(fd.value().get());
    if (!nonblocking.ok()) return nonblocking;
    conn->fd = std::move(fd.value());
    return Status::Ok();
  }

  void Enqueue(Connection* conn, bool mixed, double now) {
    Pending request;
    request.sent_at = now;
    ++attempted_;
    if (mixed && conn == &conns_[0] && since_swap_ >= kSwapEvery) {
      since_swap_ = 0;
      ++swaps_sent_;
      request.swap = true;
      conn->out += swap_lines_[swaps_sent_ % 2];
    } else {
      if (mixed) ++since_swap_;
      request.line = next_line_;
      next_line_ = (next_line_ + 1) % lines_.size();
      conn->out += lines_[request.line];
    }
    conn->out += '\n';
    conn->pending.push_back(request);
  }

  void Flush(Connection* conn) {
    if (conn->out.empty() || !conn->fd.valid()) return;
    Result<size_t> wrote = WriteSome(conn->fd.get(), conn->out);
    if (!wrote.ok()) {
      Drop(conn);
      return;
    }
    conn->out.erase(0, wrote.value());
  }

  void Poll() {
    pollfd fds[kConnections];
    for (size_t i = 0; i < kConnections; ++i) {
      fds[i].fd = conns_[i].fd.get();
      fds[i].events = POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT);
      fds[i].revents = 0;
    }
    if (::poll(fds, kConnections, 50) <= 0) return;
    for (size_t i = 0; i < kConnections; ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Connection& conn = conns_[i];
      Result<ReadOutcome> read = ReadAvailable(conn.fd.get(), &conn.in);
      if (!read.ok() || read.value().bytes == 0) {
        Drop(&conn);
        continue;
      }
      size_t begin = 0;
      size_t eol = 0;
      while ((eol = conn.in.find('\n', begin)) != std::string::npos) {
        Answer(&conn, conn.in.substr(begin, eol - begin));
        begin = eol + 1;
      }
      conn.in.erase(0, begin);
    }
  }

  void Answer(Connection* conn, std::string response) {
    if (conn->pending.empty()) {  // an answer nobody asked for
      ++failed_;
      return;
    }
    const Pending request = conn->pending.front();
    conn->pending.pop_front();
    if (corrupt_one_) {
      corrupt_one_ = false;
      response += "x";
    }
    bool ok = false;
    if (request.swap) {
      ok = CheckSwap(response, swaps_sent_ + 1);
    } else {
      std::string body;
      uint64_t gen = 0;
      ok = SplitGen(response, &body, &gen) && gen >= 1 &&
           body.rfind("ok ", 0) == 0 &&
           body == (*expected_[gen % 2 == 0 ? 1 : 0])[request.line];
    }
    if (ok) {
      ++verified_;
    } else {
      ++failed_;
    }
  }

  // A swap answer names the generation it published; swaps go out on one
  // connection, in order, so the newest one sent is at most `latest`.
  static bool CheckSwap(const std::string& response, uint64_t latest) {
    if (response.rfind("ok swapped gen=", 0) != 0) return false;
    const uint64_t gen = std::strtoull(response.c_str() + 15, nullptr, 10);
    return gen >= 2 && gen <= latest;
  }

  // A request unanswered past the timeout fails, and so does everything
  // behind it on that connection: the pairing is lost, so reconnect.
  void ExpireTimedOut() {
    const double now = clock_.NowSeconds();
    for (Connection& conn : conns_) {
      if (!conn.pending.empty() &&
          now - conn.pending.front().sent_at > kRequestTimeoutSeconds) {
        Drop(&conn);
      }
    }
  }

  void Drop(Connection* conn) {
    failed_ += conn->pending.size();
    conn->pending.clear();
    if (!Reconnect(conn).ok()) conn->fd.Reset();
  }

  const Clock& clock_ = Clock::Real();
  const int port_;
  const std::vector<std::string>& lines_;
  const std::vector<std::string>* expected_[2];
  const std::string swap_lines_[2];
  bool corrupt_one_;
  Connection conns_[kConnections];
  size_t next_line_ = 0;
  size_t since_swap_ = 0;
  uint64_t swaps_sent_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t verified_ = 0;
};

// The serve loop on its own thread. Join() (or the destructor) stops it
// and waits for it, so the loop never outlives the service it reads.
class ServerThread {
 public:
  explicit ServerThread(serve::ScoreService& service)
      : server_(service, Options(&stop_)) {}
  ~ServerThread() { (void)Join(); }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  Status Start() {
    Status started = server_.Start();
    if (started.ok()) loop_ = std::thread([this] { served_ = server_.Run(); });
    return started;
  }
  int port() const { return server_.port(); }

  // Returns how serving ended; a clean `shutdown` request reads as OK.
  Status Join() {
    if (loop_.joinable()) {
      stop_.RequestCancel();
      loop_.join();
    }
    return served_;
  }

 private:
  static serve::ServerOptions Options(const StopToken* stop) {
    serve::ServerOptions options;  // the `hido serve` defaults
    options.stop = stop;
    return options;
  }

  StopToken stop_;
  serve::SocketServer server_;
  Status served_ = Status::Ok();
  std::thread loop_;
};

// One `ping` on a fresh connection: set-up ends when the server answers.
Status Ping(int port) {
  Result<OwnedFd> fd = ConnectTcp("127.0.0.1", port);
  if (!fd.ok()) return fd.status();
  const Status sent = WriteAll(fd.value().get(), "ping\n");
  if (!sent.ok()) return sent;
  std::string carry;
  Result<std::string> pong = ReadLine(fd.value().get(), &carry);
  if (!pong.ok()) return pong.status();
  if (pong.value() != "ok pong") {
    return Status::IoError("unexpected ping answer: " + pong.value());
  }
  return Status::Ok();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::string ScoreLine(const Dataset& data, size_t row) {
  std::string line = "score ";
  for (size_t col = 0; col < data.num_cols(); ++col) {
    if (col > 0) line += ',';
    line += StrFormat("%.17g", data.Get(row, col));
  }
  return line;
}

// Expected response bodies (gen field stripped) for every request line.
std::vector<std::string> ExpectedBodies(serve::ScoreService& oracle,
                                        const std::vector<std::string>& lines) {
  std::vector<std::string> bodies;
  bodies.reserve(lines.size());
  for (const std::string& line : lines) {
    std::string body;
    uint64_t gen = 0;
    const std::string response = oracle.Handle(line);
    bodies.push_back(SplitGen(response, &body, &gen) ? body : response);
  }
  return bodies;
}

// Microseconds per request of ScoreService::Process on batches of 256
// score requests, no socket, for about `seconds`.
double ProcessMicros(serve::ScoreService& service,
                     const std::vector<std::string>& lines, double seconds) {
  const StopWatch watch;
  size_t requests = 0;
  size_t next = 0;
  while (watch.ElapsedSeconds() < seconds) {
    std::vector<serve::ServeRequest> batch;
    batch.reserve(256);
    for (size_t i = 0; i < 256; ++i) {
      batch.push_back(service.MakeRequest(lines[next]));
      next = (next + 1) % lines.size();
    }
    requests += service.Process(std::move(batch)).size();
  }
  return watch.ElapsedSeconds() * 1e6 / static_cast<double>(requests);
}

}  // namespace

int RunServeWorkload(const Args& args, Outcome* out) {
  auto fail = [](const Status& status) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  };
  const std::string v1_path = args.work_dir + "/v1.snapshot";
  const std::string v2_path = args.work_dir + "/v2.snapshot";

  // ---- set-up: ingest, both fits, snapshot round trip, server start.
  const StopWatch setup_watch;
  Result<Dataset> read = [&] {
    const Span span("data.read_csv");
    return ReadInput(args.input);
  }();
  if (!read.ok()) return fail(read.status());
  const Dataset& data = read.value();

  double detect_s = 0.0;
  DetectionResult v1;
  ensemble::EnsembleDetectionResult v2;
  {
    const Span span("serve.fit");
    const StopWatch v1_watch;
    {
      const Span detect_span("core.detect");
      v1 = OutlierDetector(CliDefaultConfig()).Detect(data);
    }
    detect_s += v1_watch.ElapsedSeconds();
    // `hido fit --ensemble 4`: all-GA members, mean combiner.
    ensemble::EnsembleConfig config;
    config.base = CliDefaultConfig();
    config.ensemble.num_members = 4;
    const StopWatch v2_watch;
    {
      const Span detect_span("ensemble.detect");
      v2 = ensemble::EnsembleDetector(config).Detect(data);
    }
    detect_s += v2_watch.ElapsedSeconds();
    Status saved =
        serve::SaveSnapshot(serve::MakeSnapshot(v1, data, 42), v1_path);
    if (saved.ok()) {
      saved = serve::SaveSnapshot(serve::MakeEnsembleSnapshot(v2, data, 42),
                                  v2_path);
    }
    if (!saved.ok()) return fail(saved);
  }

  serve::ScoreService service;  // --threads 1: one score thread
  {
    const Span span("serve.snapshot_load");
    const Status published = service.PublishFromFile(v1_path);
    if (!published.ok()) return fail(published);
  }
  ServerThread server(service);
  {
    const Span span("serve.start");
    const Status started = server.Start();
    if (!started.ok()) return fail(started);
  }
  {
    const Span span("serve.ping");
    const Status pong = Ping(server.port());
    if (!pong.ok()) return fail(pong);
  }
  const double setup_s = setup_watch.ElapsedSeconds();
  const double setup_cpu_s = ProcessCpuSeconds();

  // ---- oracle (untimed): expected bodies from an in-process service.
  const CubeCheck v1_check = CheckCubes(v1.grid, v1.report.projections);
  std::vector<ScoredProjection> member_cubes;
  for (const ensemble::EnsembleMemberResult& member : v2.members) {
    member_cubes.insert(member_cubes.end(), member.projections.begin(),
                        member.projections.end());
  }
  const CubeCheck v2_check = CheckCubes(v2.grid, member_cubes);
  // Distinct request lines: rows spread evenly over the input.
  std::vector<std::string> lines;
  const size_t distinct = std::min(kDistinctRequests, data.num_rows());
  for (size_t i = 0; i < distinct; ++i) {
    lines.push_back(ScoreLine(data, i * data.num_rows() / distinct));
  }
  std::vector<std::string> expected_v1;
  std::vector<std::string> expected_v2;
  {
    serve::ScoreService oracle;
    Result<std::shared_ptr<serve::ModelSnapshot>> s1 =
        serve::LoadSnapshot(v1_path);
    Result<std::shared_ptr<serve::ModelSnapshot>> s2 =
        serve::LoadSnapshot(v2_path);
    if (!s1.ok()) return fail(s1.status());
    if (!s2.ok()) return fail(s2.status());
    oracle.Publish(s1.value());
    expected_v1 = ExpectedBodies(oracle, lines);
    oracle.Publish(s2.value());
    expected_v2 = ExpectedBodies(oracle, lines);
  }
  Client client(server.port(), lines, expected_v1, expected_v2, v1_path,
                v2_path, args.corrupt == "response");
  const Status connected = client.Connect();
  if (!connected.ok()) return fail(connected);
  // Warm-up, untimed: a little over two passes of the distinct lines.
  client.RunPhase(/*mixed=*/false, 0.25);

  const double errors_before = RegistryValue("serve.errors");
  const double shed_before = RegistryValue("serve.shed.requests") +
                             RegistryValue("serve.shed.connections");
  const double evictions_before = RegistryValue("serve.evictions");
  const HistogramTotals batch_before = RegistryHistogram("serve.batch.size");
  const HistogramTotals swap_before =
      RegistryHistogram("serve.swap.latency_seconds");

  // ---- timed phases: kSlices short slices alternating A, B, A, B, ...
  // Each slice's rate is one sample; the median over many short slices
  // shrugs off the scheduler stalls a shared host injects.
  const double phases_cpu_start = ProcessCpuSeconds();
  const StopWatch phases_watch;
  std::vector<double> rates_a;
  std::vector<double> rates_b;
  for (int i = 0; i < kSlices; ++i) {
    const double slice = args.seconds / kSlices;
    if (i % 2 == 0) {
      const Span span("serve.phase_a");
      rates_a.push_back(client.RunPhase(/*mixed=*/false, slice));
    } else {
      {
        const Span span("serve.phase_b");
        rates_b.push_back(client.RunPhase(/*mixed=*/true, slice));
      }
      client.RestoreV1();
    }
  }
  const double rate_a = Median(rates_a);
  const double rate_b = Median(rates_b);
  const double phases_s = phases_watch.ElapsedSeconds();
  const double cpu_s = setup_cpu_s + ProcessCpuSeconds() - phases_cpu_start;
  const bool bye = client.Exchange("shutdown").ok();
  const Status served = server.Join();

  // Operations: every request and swap sent, every reported cube, both
  // fits finishing, and the clean shutdown.
  out->attempted = client.attempted() + v1_check.checked +
                   v2_check.checked + 3;
  out->failed = client.failed() + v1_check.failed +
                v2_check.failed + (v1.completed ? 0 : 1) +
                (v2.completed ? 0 : 1);
  out->failed += (bye && served.ok()) ? 0 : 1;
  out->metrics["setup_s"] = setup_s;
  out->metrics["detect_s"] = detect_s;
  out->metrics["cpu_s"] = cpu_s;
  out->metrics["peak_rss_mb"] = PeakRssMb();
  // Over both fits' cubes (v1's 20 and the ensemble members' 80).
  out->metrics["top_m_neg_sparsity"] =
      (v1_check.mean_neg_sparsity * static_cast<double>(v1_check.checked) +
       v2_check.mean_neg_sparsity * static_cast<double>(v2_check.checked)) /
      static_cast<double>(v1_check.checked + v2_check.checked);
  for (size_t i = 0; i < lines.size(); ++i) {
    out->report += expected_v1[i] + "\n" + expected_v2[i] + "\n";
  }

  if (args.trace) {
    SpanRecorder& spans = SpanRecorder::Global();
    SetDataAndGridLayers(args, out);
    out->layers["search.s"] = v1.evolution_stats.seconds;
    out->layers["search.evaluations"] =
        static_cast<double>(v1.evolution_stats.evaluations);
    out->layers["search.evals_per_s"] =
        static_cast<double>(v1.evolution_stats.evaluations) /
        v1.evolution_stats.seconds;
    out->layers["postprocess.s"] =
        RegistryHistogram("trace.postprocess.seconds").sum;
    double evaluations = 0.0;
    for (const ensemble::EnsembleMemberResult& member : v2.members) {
      out->layers[std::string("ensemble.member_s.") +
                  ensemble::MemberKindToString(member.kind)] += member.seconds;
      evaluations += static_cast<double>(member.evaluations);
    }
    out->layers["ensemble.evaluations"] = evaluations;
    out->layers["ensemble.combine_s"] =
        RegistryHistogram("trace.ensemble_combine.seconds").sum;
    out->layers["serve.fit_s"] = spans.TotalSeconds("serve.fit");
    out->layers["serve.snapshot_load_s"] =
        spans.TotalSeconds("serve.snapshot_load");
    out->layers["serve.phase_a_rps"] = rate_a;
    out->layers["serve.phase_b_rps"] = rate_b;
    const HistogramTotals batch = RegistryHistogram("serve.batch.size");
    const HistogramTotals swap = RegistryHistogram("serve.swap.latency_seconds");
    out->layers["serve.batch_mean"] =
        (batch.sum - batch_before.sum) / (batch.count - batch_before.count);
    out->layers["serve.swap_ms"] =
        swap.count > swap_before.count
            ? 1e3 * (swap.sum - swap_before.sum) /
                  (swap.count - swap_before.count)
            : 0.0;
    out->layers["serve.errors"] = RegistryValue("serve.errors") - errors_before;
    out->layers["serve.shed"] = RegistryValue("serve.shed.requests") +
                                RegistryValue("serve.shed.connections") -
                                shed_before;
    out->layers["serve.evictions"] =
        RegistryValue("serve.evictions") - evictions_before;
    out->layers["planted_recall"] =
        PlantedRecall(RankRows(ScoreAllPoints(v1.grid, v1.report.projections)),
                      ReadTruth(args.input));
    out->layers["layer_coverage_frac"] =
        (out->layers["data.read_csv_s"] + out->layers["serve.fit_s"] +
         out->layers["serve.snapshot_load_s"] +
         spans.TotalSeconds("serve.phase_a") +
         spans.TotalSeconds("serve.phase_b")) /
        (setup_s + phases_s);

    // ScoreService::Process alone, per snapshot, after the timed phases.
    serve::ScoreService bare;
    for (int model = 0; model < 2; ++model) {
      const Span span(model == 0 ? "serve.process.v1" : "serve.process.v2");
      const Status published =
          bare.PublishFromFile(model == 0 ? v1_path : v2_path);
      if (!published.ok()) return fail(published);
      out->layers[model == 0 ? "serve.process_us.v1" : "serve.process_us.v2"] =
          ProcessMicros(bare, lines, 0.3);
    }
    out->layers["serve.transport_us"] =
        1e6 / rate_a - out->layers["serve.process_us.v1"];
  }
  return 0;
}

}  // namespace perfbench
}  // namespace hido
