// serve-index: the TCP index server under open-loop load.
//
// One generator thread drives `nproc` pipelined connections to an
// in-process TcpServer preloaded with a ServeCorpus. Arrivals follow a
// Poisson schedule fixed up front from the seed; each connection carries
// its requests FIFO, so replies match sends in order. A request is timed
// from its due time (open-loop latency) and from its actual send (service
// time); how late the generator sent is recorded separately.
//
// Untraced run: the throughput, as completions per second while the
// offered load is about twice what the server completes (the best of
// three steps after a warm-up, among those whose generator was valid:
// on time and busy for at most half its sending window).
//
// Traced run: a step at a fixed reference rate untraced and again traced
// (the tracing overhead); open-loop latency and STATS deltas around the
// untraced step (server dispatch time, bytes out, RSS); the client codec
// cost; the same request sequence replayed single-threaded into a
// separately preloaded ServerCore; and the capacity against the SLO: the
// highest step on a geometric ladder of offered rates whose open-loop p99
// meets the SLO, whose last quarter shows no growing backlog (its median
// also within the SLO), with an on-time generator and no failed request.
//
// Gates: every reply of a measured step (saturation, reference) arrives
// and decodes, the generator sends on time, and the server's STATS counts
// equal the client's sends by type. A ladder step that fails is only a
// miss; one that ends with requests in flight retires the connections.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/netio/corpus.h"
#include "src/netio/frame.h"
#include "src/netio/loadgen.h"
#include "src/netio/tcp_client.h"
#include "src/netio/tcp_server.h"
#include "src/obs/span.h"
#include "src/workload/config.h"

namespace perfbench {

namespace {

namespace netio = edk::netio;

constexpr size_t kKinds = 5;
enum Kind : uint8_t { kPublish, kSearch, kQuerySources, kQueryUsers, kBrowse };
constexpr std::array<const char*, kKinds> kKindNames = {
    "publish", "search", "query_sources", "query_users", "browse"};

// A send later than this after its due time counts as late.
constexpr double kLateUs = 1000;
// A step with more late sends than this share, or whose generator was
// busy for more than kMaxBusyShare of its sending window, is invalid: the
// generator may have limited it. It never counts as capacity or throughput.
constexpr double kMaxLateShare = 0.01;
constexpr double kMaxBusyShare = 0.5;
// Geometric ladder of offered rates: ladder(i) = base * kLadderStep^i.
constexpr double kLadderStep = 1.05;
// Ladder steps per jump of the capacity search (x1.28).
constexpr int kJump = 5;
// Replies still missing this long after the last due time are failures.
constexpr double kDrainSeconds = 5;
constexpr double kInf = std::numeric_limits<double>::infinity();
// The generator polls without sleeping this close to the next due time.
constexpr int64_t kSpinNs = 1'000'000;

// The open-loop p99 limit of a passing capacity step: about 5x the p99
// at light load measured when the benchmark was written (4 CPUs).
constexpr double kSloMs = 25;
// Rate of the latency and per-layer reference step: about half the
// capacity, on the flat part of the latency curve.
constexpr double kReferenceQps = 3'500;
// Offered rate of the saturation steps: about twice what the server
// completes, so it is never idle and its backlog drains at full speed.
constexpr double kSaturationQps = 20'000;
constexpr double kLadderBaseQps = 500;

double Ladder(int step) { return kLadderBaseQps * std::pow(kLadderStep, step); }

struct Arrival {
  double due_s = 0;  // From step start.
  Kind kind = kPublish;
  uint64_t param_seed = 0;
};

// Request parameters drawn from an arrival's seed, the way the repo's
// RunLoadGen draws them: Zipf-popular files and keywords.
class RequestMaker {
 public:
  explicit RequestMaker(const netio::ServeCorpus& corpus)
      : corpus_(corpus),
        file_zipf_(corpus.files.size(), 0.9),
        keyword_zipf_(corpus.keyword_pool.size(), corpus.config.keyword_zipf) {}

  struct Request {
    Kind kind = kPublish;
    std::vector<edk::SharedFileInfo> files;
    std::vector<std::string> keywords;
    edk::Md4Digest digest{};
    std::string prefix;
    edk::NodeId target = edk::kInvalidNode;
  };

  void Make(const Arrival& arrival, Request* out) const {
    edk::Rng rng(arrival.param_seed);
    out->kind = arrival.kind;
    switch (arrival.kind) {
      case kPublish: {
        out->files.clear();
        const size_t n = 1 + rng.NextBelow(20);
        for (size_t f = 0; f < n; ++f) {
          out->files.push_back(corpus_.files[file_zipf_.Sample(rng) - 1]);
        }
        break;
      }
      case kSearch:
        out->keywords.clear();
        out->keywords.push_back(
            corpus_.keyword_pool[keyword_zipf_.Sample(rng) - 1]);
        if (rng.NextBool(0.5)) {
          out->keywords.push_back(
              corpus_.keyword_pool[keyword_zipf_.Sample(rng) - 1]);
        }
        break;
      case kQuerySources:
        out->digest = corpus_.files[file_zipf_.Sample(rng) - 1].digest;
        break;
      case kQueryUsers:
        out->prefix = "peer";
        if (rng.NextBool(0.7)) {
          out->prefix += std::to_string(rng.NextBelow(10));
        }
        break;
      case kBrowse:
        out->target = static_cast<edk::NodeId>(
            1 + rng.NextBelow(corpus_.client_files.size()));
        break;
    }
  }

  // Appends the request's frame to `wire`.
  static void Encode(const Request& request, std::string* wire) {
    switch (request.kind) {
      case kPublish:
        wire->append(netio::EncodeFrame(
            netio::MsgType::kPublishReq,
            netio::EncodePublishReq(netio::PublishReq{request.files})));
        break;
      case kSearch:
        wire->append(netio::EncodeFrame(
            netio::MsgType::kSearchReq,
            netio::EncodeSearchReq(netio::SearchReq{request.keywords})));
        break;
      case kQuerySources:
        wire->append(netio::EncodeFrame(
            netio::MsgType::kQuerySourcesReq,
            netio::EncodeQuerySourcesReq(
                netio::QuerySourcesReq{request.digest})));
        break;
      case kQueryUsers:
        wire->append(netio::EncodeFrame(
            netio::MsgType::kQueryUsersReq,
            netio::EncodeQueryUsersReq(netio::QueryUsersReq{request.prefix})));
        break;
      case kBrowse:
        wire->append(netio::EncodeFrame(
            netio::MsgType::kBrowseReq,
            netio::EncodeBrowseReq(netio::BrowseReq{request.target})));
        break;
    }
  }

 private:
  const netio::ServeCorpus& corpus_;
  edk::ZipfSampler file_zipf_;
  edk::ZipfSampler keyword_zipf_;
};

// Decodes a reply to a request of `kind`; false when it is an error reply,
// the wrong type, or undecodable.
bool DecodeReply(Kind kind, const netio::Frame& frame) {
  switch (kind) {
    case kPublish: {
      netio::PublishRep rep;
      return frame.type == netio::MsgType::kPublishRep &&
             netio::DecodePublishRep(frame.payload, &rep);
    }
    case kSearch: {
      netio::SearchRep rep;
      return frame.type == netio::MsgType::kSearchRep &&
             netio::DecodeSearchRep(frame.payload, &rep);
    }
    case kQuerySources: {
      netio::SourcesRep rep;
      return frame.type == netio::MsgType::kSourcesRep &&
             netio::DecodeSourcesRep(frame.payload, &rep);
    }
    case kQueryUsers: {
      netio::UsersRep rep;
      return frame.type == netio::MsgType::kUsersRep &&
             netio::DecodeUsersRep(frame.payload, &rep);
    }
    case kBrowse: {
      netio::BrowseRep rep;
      return frame.type == netio::MsgType::kBrowseRep &&
             netio::DecodeBrowseRep(frame.payload, &rep);
    }
  }
  return false;
}

std::vector<Arrival> MakeSchedule(double rate, double seconds, uint64_t seed) {
  const netio::RequestMix mix = netio::DeriveRequestMix(edk::WorkloadConfig{});
  const std::array<double, kKinds> weights = {
      mix.publish, mix.search, mix.query_sources, mix.query_users, mix.browse};
  const size_t total = static_cast<size_t>(std::llround(rate * seconds));
  std::vector<Arrival> schedule(total);
  edk::Rng rng(seed);
  double t = 0;
  for (Arrival& arrival : schedule) {
    t += rng.NextExponential(rate);
    arrival.due_s = t;
    arrival.kind = static_cast<Kind>(rng.NextWeighted(weights));
    arrival.param_seed = rng();
  }
  return schedule;
}

struct StepResult {
  uint64_t scheduled = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;  // Error replies, undecodable replies, lost replies.
  std::array<uint64_t, kKinds> sent_by_kind{};
  double p50_ms = 0;
  double p99_ms = 0;
  // Median of the step's last quarter: a backlog that grows through the
  // step shows here, while a brief stall of the host does not.
  double tail_p50_ms = 0;
  std::array<double, kKinds> kind_p99_ms{};
  double service_p50_us = 0;
  double service_p99_us = 0;
  double service_mean_us = 0;
  double completed_per_s = 0;  // Completions over first due to last reply.
  double late_share = 0;
  double late_p99_us = 0;
  // Share of the sending window (step start to last send) the generator
  // thread spent working rather than waiting in ppoll with nothing to do.
  double busy_share = 0;
  double encode_us = 0;  // Per request.
  double decode_us = 0;  // Per reply: reassembly plus payload decode.
  bool transport_ok = true;

  bool GeneratorValid() const {
    return late_share <= kMaxLateShare && busy_share <= kMaxBusyShare;
  }
  bool Passes(double slo_ms) const {
    return failed == 0 && transport_ok && GeneratorValid() && p99_ms <= slo_ms &&
           tail_p50_ms <= slo_ms;
  }
};

// The generator: one thread, `nproc` pipelined non-blocking connections.
class Generator {
 public:
  Generator(const netio::ServeCorpus& corpus, uint16_t port, size_t connections)
      : maker_(corpus) {
    for (size_t c = 0; c < connections; ++c) {
      conns_.push_back(std::make_unique<Conn>());
      ok_ = ok_ && Connect(*conns_.back(), port, c);
    }
  }
  ~Generator() {
    for (auto& conn : conns_) {
      if (conn->fd >= 0) {
        ::close(conn->fd);
      }
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  // False once a connection failed or a step ended with requests in
  // flight: replies on these connections no longer pair with sends.
  bool ok() const { return ok_; }

  StepResult Run(const std::vector<Arrival>& schedule) {
    static const uint16_t step_span = SpanName("bench.serve.step");
    static const uint16_t encode_span = SpanName("bench.netio.client.encode");
    static const uint16_t decode_span = SpanName("bench.netio.client.decode");
    edk::obs::WallSpan span(step_span);

    StepResult result;
    result.scheduled = schedule.size();
    const size_t n = schedule.size();
    if (!ok_) {
      result.failed = n;
      result.transport_ok = false;
      return result;
    }
    std::vector<double> open_us(n, kInf);
    std::vector<double> service_us;
    std::vector<double> late_us(n, 0);
    service_us.reserve(n);
    double encode_ns = 0;
    double decode_ns = 0;
    double idle_ns = 0;
    double busy_share = 0;
    uint64_t replies = 0;

    auto due = [&](size_t i) {
      return start_ + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(schedule[i].due_s));
    };
    start_ = Clock::now() + std::chrono::milliseconds(1);
    const Clock::time_point deadline =
        (n > 0 ? due(n - 1) : start_) +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(kDrainSeconds));

    RequestMaker::Request request;
    Clock::time_point last_reply = start_;
    size_t next = 0;
    size_t inflight = 0;
    std::vector<pollfd> fds(conns_.size());
    char buffer[64 * 1024];
    while ((next < n || inflight > 0) && result.transport_ok) {
      Clock::time_point now = Clock::now();
      while (next < n && due(next) <= now) {
        Conn& conn = *conns_[next % conns_.size()];
        const auto encode_start = Clock::now();
        {
          edk::obs::WallSpan encode(encode_span);
          maker_.Make(schedule[next], &request);
          RequestMaker::Encode(request, &conn.out);
        }
        now = Clock::now();
        encode_ns += std::chrono::duration<double, std::nano>(now - encode_start).count();
        late_us[next] = std::chrono::duration<double, std::micro>(now - due(next)).count();
        conn.pending.push_back(Pending{next, now});
        ++result.sent_by_kind[schedule[next].kind];
        ++next;
        ++inflight;
        if (!Flush(conn)) {
          result.transport_ok = false;
        }
        now = Clock::now();
        if (next == n) {
          const double window_ns =
              std::chrono::duration<double, std::nano>(now - start_).count();
          busy_share = window_ns > 0 ? std::max(0.0, 1 - idle_ns / window_ns) : 0;
        }
      }
      if (now > deadline || !result.transport_ok) {
        break;
      }
      const auto wait = next < n ? due(next) - now
                                 : std::min<Clock::duration>(
                                       deadline - now, std::chrono::milliseconds(50));
      // Sleep only through long gaps; near a due time, spin on a zero
      // timeout so a slow wake-up never makes the generator late.
      auto wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
      wait_ns = wait_ns > kSpinNs ? wait_ns - kSpinNs : 0;
      timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                       static_cast<long>(wait_ns % 1'000'000'000)};
      for (size_t c = 0; c < conns_.size(); ++c) {
        fds[c].fd = conns_[c]->fd;
        fds[c].events = POLLIN;
        if (conns_[c]->out_off < conns_[c]->out.size()) {
          fds[c].events |= POLLOUT;
        }
        fds[c].revents = 0;
      }
      const auto poll_start = Clock::now();
      const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
      if (ready == 0) {
        idle_ns += std::chrono::duration<double, std::nano>(Clock::now() - poll_start).count();
      }
      if (ready < 0) {
        if (errno != EINTR) {
          result.transport_ok = false;
        }
        continue;
      }
      for (size_t c = 0; c < conns_.size() && ready > 0; ++c) {
        Conn& conn = *conns_[c];
        if ((fds[c].revents & POLLOUT) && !Flush(conn)) {
          result.transport_ok = false;
        }
        if (!(fds[c].revents & (POLLIN | POLLERR | POLLHUP))) {
          continue;
        }
        // Drain the connection, but stop at the next due send: a long
        // backlog of replies never holds a send back by more than one
        // buffer's decode.
        while (next == n || due(next) > Clock::now()) {
          const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), 0);
          if (got < 0 && errno == EINTR) {
            continue;
          }
          if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          }
          if (got <= 0) {
            result.transport_ok = false;
            break;
          }
          const auto received = Clock::now();
          last_reply = received;
          edk::obs::WallSpan decode(decode_span);
          conn.assembler.Feed(buffer, static_cast<size_t>(got));
          while (auto frame = conn.assembler.Next()) {
            if (conn.pending.empty()) {
              ++result.failed;  // A reply nobody asked for.
              continue;
            }
            const Pending pending = conn.pending.front();
            conn.pending.pop_front();
            --inflight;
            ++replies;
            if (!DecodeReply(schedule[pending.index].kind, *frame)) {
              ++result.failed;
              continue;
            }
            ++result.completed;
            open_us[pending.index] =
                std::chrono::duration<double, std::micro>(received - due(pending.index))
                    .count();
            service_us.push_back(
                std::chrono::duration<double, std::micro>(received - pending.sent)
                    .count());
          }
          decode.Finish();
          decode_ns += std::chrono::duration<double, std::nano>(Clock::now() - received)
                           .count();
          if (conn.assembler.broken()) {
            result.transport_ok = false;
            break;
          }
        }
      }
    }
    const double span_s = std::chrono::duration<double>(last_reply - start_).count();
    result.completed_per_s =
        span_s > 0 ? static_cast<double>(result.completed) / span_s : 0;
    result.busy_share = busy_share;
    // Anything still in flight missed the drain deadline: failed, and the
    // FIFO pairing of the connections can no longer be trusted, so the
    // generator runs no further step on them.
    result.failed += inflight + (n - next);
    if (inflight > 0 || next < n) {
      result.transport_ok = false;
    }
    ok_ = ok_ && result.transport_ok;

    std::vector<double> sorted_open = open_us;
    std::sort(sorted_open.begin(), sorted_open.end());
    result.p50_ms = SortedQuantile(sorted_open, 0.50) / 1000;
    result.p99_ms = SortedQuantile(sorted_open, 0.99) / 1000;
    std::vector<double> tail(open_us.begin() + static_cast<std::ptrdiff_t>(n - n / 4),
                             open_us.end());
    std::sort(tail.begin(), tail.end());
    result.tail_p50_ms = SortedQuantile(tail, 0.50) / 1000;
    for (size_t k = 0; k < kKinds; ++k) {
      std::vector<double> of_kind;
      for (size_t i = 0; i < n; ++i) {
        if (schedule[i].kind == k) {
          of_kind.push_back(open_us[i]);
        }
      }
      std::sort(of_kind.begin(), of_kind.end());
      result.kind_p99_ms[k] = SortedQuantile(of_kind, 0.99) / 1000;
    }
    std::sort(service_us.begin(), service_us.end());
    result.service_p50_us = SortedQuantile(service_us, 0.50);
    result.service_p99_us = SortedQuantile(service_us, 0.99);
    double service_sum = 0;
    for (const double v : service_us) {
      service_sum += v;
    }
    result.service_mean_us =
        service_us.empty() ? 0 : service_sum / static_cast<double>(service_us.size());
    const size_t late = static_cast<size_t>(
        std::count_if(late_us.begin(), late_us.end(), [](double v) { return v > kLateUs; }));
    result.late_share = n == 0 ? 0 : static_cast<double>(late) / static_cast<double>(n);
    std::sort(late_us.begin(), late_us.end());
    result.late_p99_us = SortedQuantile(late_us, 0.99);
    result.encode_us = n == 0 ? 0 : encode_ns / 1000 / static_cast<double>(n);
    result.decode_us = replies == 0 ? 0 : decode_ns / 1000 / static_cast<double>(replies);
    return result;
  }

 private:
  struct Pending {
    size_t index;
    Clock::time_point sent;
  };
  struct Conn {
    int fd = -1;
    netio::FrameAssembler assembler;
    std::string out;
    size_t out_off = 0;
    std::deque<Pending> pending;
  };

  // Connects, logs in with a blocking round trip, then goes non-blocking.
  static bool Connect(Conn& conn, uint16_t port, size_t index) {
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn.fd < 0) {
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    const int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::string login = netio::EncodeFrame(
        netio::MsgType::kLoginReq,
        netio::EncodeLoginReq(netio::LoginReq{"pbgen" + std::to_string(index), false}));
    if (::send(conn.fd, login.data(), login.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(login.size())) {
      return false;
    }
    char buffer[4096];
    std::optional<netio::Frame> frame;
    while (!(frame = conn.assembler.Next())) {
      const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), 0);
      if (got <= 0 || conn.assembler.broken()) {
        return false;
      }
      conn.assembler.Feed(buffer, static_cast<size_t>(got));
    }
    netio::LoginRep rep;
    if (frame->type != netio::MsgType::kLoginRep ||
        !netio::DecodeLoginRep(frame->payload, &rep) || !rep.accepted) {
      return false;
    }
    return ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK) == 0;
  }

  // Writes what the socket takes; false on a transport error.
  static bool Flush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t wrote = ::send(conn.fd, conn.out.data() + conn.out_off,
                                   conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (wrote > 0) {
        conn.out_off += static_cast<size_t>(wrote);
      } else if (wrote < 0 && errno == EINTR) {
        continue;
      } else if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        return false;
      }
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    return true;
  }

  RequestMaker maker_;
  std::vector<std::unique_ptr<Conn>> conns_;
  Clock::time_point start_;
  bool ok_ = true;
};

// Server-side counters and histograms scraped over the in-band STATS plane.
struct StatsView {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, netio::StatsHistogramValue> histograms;
};

std::optional<StatsView> ScrapeStats(uint16_t port) {
  netio::TcpClient client;
  if (!client.Connect("127.0.0.1", port)) {
    return std::nullopt;
  }
  const auto rep = client.Stats();
  if (!rep.has_value()) {
    return std::nullopt;
  }
  StatsView view;
  for (const auto& counter : rep->counters) {
    view.counters[counter.name] = counter.value;
  }
  for (const auto& gauge : rep->gauges) {
    view.gauges[gauge.name] = gauge.value;
  }
  for (const auto& histogram : rep->histograms) {
    view.histograms[histogram.name] = histogram;
  }
  return view;
}

uint64_t CounterDelta(const StatsView& before, const StatsView& after,
                      const std::string& name) {
  const auto a = after.counters.find(name);
  const auto b = before.counters.find(name);
  const uint64_t va = a == after.counters.end() ? 0 : a->second;
  const uint64_t vb = b == before.counters.end() ? 0 : b->second;
  return va >= vb ? va - vb : 0;
}

// Quantile of the histogram delta, interpolated linearly inside its bin.
double HistogramDeltaQuantile(const StatsView& before, const StatsView& after,
                              const std::string& name, double q) {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end() || a->second.counts.empty()) {
    return 0;
  }
  const auto b = before.histograms.find(name);
  const auto& hist = a->second;
  std::vector<double> counts(hist.counts.size());
  double total = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t prior =
        b == before.histograms.end() || i >= b->second.counts.size() ? 0
                                                                     : b->second.counts[i];
    counts[i] = static_cast<double>(hist.counts[i] - std::min(hist.counts[i], prior));
    total += counts[i];
  }
  if (total == 0) {
    return 0;
  }
  const double width = (hist.hi - hist.lo) / static_cast<double>(counts.size());
  const double rank = q * total;
  double seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0 && seen + counts[i] >= rank) {
      return hist.lo + width * (static_cast<double>(i) + (rank - seen) / counts[i]);
    }
    seen += counts[i];
  }
  return hist.hi;
}

// Allowed CPUs split into one for the generator and the rest for the
// server. Both are empty (no pinning) when only one CPU is allowed.
struct CpuSplit {
  std::vector<int> generator;
  std::vector<int> server;
};

CpuSplit SplitCpus() {
  cpu_set_t allowed;
  CpuSplit split;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) < 2) {
    return split;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      (split.generator.empty() ? split.generator : split.server).push_back(cpu);
    }
  }
  return split;
}

void SetAffinity(const std::vector<int>& cpus) {
  if (cpus.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  ::sched_setaffinity(0, sizeof(set), &set);
}

struct ServeSetup {
  netio::ServeCorpus corpus;
  std::unique_ptr<netio::TcpServer> server;
};

// Replays `schedule` single-threaded into a freshly preloaded ServerCore,
// timing each handler: the index work without sockets or locks.
void ReplayIntoCore(const netio::ServeCorpus& corpus,
                    const std::vector<Arrival>& schedule, Report* report) {
  static const std::array<uint16_t, kKinds> spans = {
      SpanName("bench.net.core.publish"), SpanName("bench.net.core.search"),
      SpanName("bench.net.core.query_sources"),
      SpanName("bench.net.core.query_users"), SpanName("bench.net.core.browse")};
  edk::ServerCore core{edk::ServerConfig{}};
  const edk::NodeId replayer = netio::PreloadServeCorpus(core, corpus);
  core.HandleLogin(replayer, "replayer", false);
  RequestMaker maker(corpus);
  RequestMaker::Request request;
  std::array<std::vector<double>, kKinds> times_us;
  double search_results = 0;
  for (const Arrival& arrival : schedule) {
    maker.Make(arrival, &request);
    const auto start = Clock::now();
    {
      edk::obs::WallSpan span(spans[arrival.kind]);
      switch (arrival.kind) {
        case kPublish:
          core.HandlePublish(replayer, request.files);
          break;
        case kSearch:
          search_results += static_cast<double>(core.HandleSearch(request.keywords).size());
          break;
        case kQuerySources:
          core.HandleQuerySources(request.digest);
          break;
        case kQueryUsers:
          core.HandleQueryUsers(request.prefix);
          break;
        case kBrowse:
          core.HandleBrowse(request.target);
          break;
      }
    }
    times_us[arrival.kind].push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start).count());
  }
  for (Kind kind : {kPublish, kSearch, kQuerySources, kBrowse}) {
    std::vector<double>& times = times_us[kind];
    std::sort(times.begin(), times.end());
    const std::string base = std::string("net.core.") + kKindNames[kind] + "_us";
    report->Metric(base + ".p50", SortedQuantile(times, 0.50), "us");
    report->Metric(base + ".p99", SortedQuantile(times, 0.99), "us");
  }
  report->Metric("net.core.search_results_per_req",
                 times_us[kSearch].empty()
                     ? 0
                     : search_results / static_cast<double>(times_us[kSearch].size()),
                 "count");
}

}  // namespace

void RunServe(const RunOptions& options, Report* report) {
  // The index is fixed (the corpus generator's default seed); the run's
  // seed drives the traffic: arrival schedules and request parameters.
  netio::ServeCorpusConfig corpus_config;
  corpus_config.clients = options.tiny ? 2'000 : 20'000;
  corpus_config.files = options.tiny ? 20'000 : 200'000;
  corpus_config.keywords = 4096;
  const size_t connections = options.threads;
  const size_t io_threads = std::max<size_t>(1, options.threads - 1);
  report->Env("serve.connections", static_cast<double>(connections));
  report->Env("serve.server_io_threads", static_cast<double>(io_threads));
  report->Env("serve.generator_threads", 1);
  report->Env("serve.corpus", std::to_string(corpus_config.clients) + " clients / " +
                                  std::to_string(corpus_config.files) + " files / " +
                                  std::to_string(corpus_config.keywords) + " keywords");
  report->Env("serve.slo_ms", kSloMs);
  report->Env("serve.reference_qps", kReferenceQps);
  report->Env("serve.saturation_qps", kSaturationQps);
  report->Env("serve.ladder", "500 q/s x 1.05^i");

  const CpuSplit cpus = SplitCpus();
  report->Env("serve.cpu_pinning", cpus.generator.empty()
                                       ? "none (one CPU)"
                                       : "generator on 1 CPU, server threads on the rest");
  ServeSetup setup;
  std::string error;
  bool started = true;
  const double setup_s = MedianSetupSeconds([&] {
    // Release the previous round first, so VmHWM is one setup's peak.
    setup.server.reset();
    setup.corpus = {};
    setup.corpus = netio::BuildServeCorpus(corpus_config);
    netio::TcpServerConfig config;
    config.worker_threads = io_threads;
    config.first_client_id = corpus_config.clients + 1;
    setup.server = std::make_unique<netio::TcpServer>(config);
    netio::PreloadServeCorpus(setup.server->core(), setup.corpus);
    // The server's threads inherit the server CPUs; the generator then
    // moves to its own CPU, so a woken server thread never preempts it.
    SetAffinity(cpus.server);
    started = setup.server->Start(&error) && started;
    SetAffinity(cpus.generator);
  });
  report->Metric("setup_s", setup_s, "s");
  report->MemoryAt("setup");
  report->Check("serve.server_started", started, error);
  if (!started) {
    return;
  }
  const uint16_t port = setup.server->port();
  Generator generator(setup.corpus, port, connections);
  report->Check("serve.connections_logged_in", generator.ok());
  if (!generator.ok()) {
    return;
  }

  const double budget = options.tiny ? 1.0 : options.seconds;
  std::array<uint64_t, kKinds> sent{};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Gate over the measured steps: every reply arrived and decoded. A
  // ladder step that fails is only a miss of the SLO.
  std::string reply_problems;
  auto run_step = [&](double rate, double seconds, uint64_t step_seed, bool gated) {
    const StepResult step =
        generator.Run(MakeSchedule(rate, seconds, step_seed));
    std::fprintf(stderr,
                 "[serve] %.0f q/s x %.2f s: %.0f completed/s, p50 %.3f ms, p99 %.3f ms, "
                 "last-quarter p50 %.3f ms, late %.2f%%, generator busy %.0f%%, "
                 "failed %llu -> %s\n",
                 rate, seconds, step.completed_per_s, step.p50_ms, step.p99_ms,
                 step.tail_p50_ms, step.late_share * 100, step.busy_share * 100,
                 static_cast<unsigned long long>(step.failed),
                 step.Passes(kSloMs) ? "meets SLO" : "misses SLO");
    attempted += step.scheduled;
    failed += step.failed;
    for (size_t k = 0; k < kKinds; ++k) {
      sent[k] += step.sent_by_kind[k];
    }
    const std::string label = std::to_string(std::lround(rate)) + " q/s step";
    if (gated && (step.failed > 0 || !step.transport_ok)) {
      reply_problems += label + ": " + std::to_string(step.failed) + " failed" +
                        (step.transport_ok ? "" : ", transport error or drain timeout") + "; ";
    }
    return step;
  };
  auto record_generator = [&](const std::string& prefix, const StepResult& step) {
    report->Env(prefix + ".late_share", step.late_share);
    report->Env(prefix + ".late_p99_us", step.late_p99_us);
    report->Env(prefix + ".gen_busy_share", step.busy_share);
  };
  // Validity gate: the measured step had a valid generator.
  const std::string generator_limits =
      "a valid step has at most " + std::to_string(std::lround(kMaxLateShare * 100)) +
      "% of sends over " + std::to_string(std::lround(kLateUs)) + " us late and a generator " +
      "at most " + std::to_string(std::lround(kMaxBusyShare * 100)) + "% busy";

  const auto stats_start = ScrapeStats(port);
  if (!options.trace) {
    // Throughput: completions per second while the offered load is twice
    // what the server completes, after a warm-up at the reference rate.
    run_step(kReferenceQps, 0.1 * budget, Fnv1a("warmup", options.seed), false);
    std::vector<double> rates;  // Of the steps with a valid generator.
    for (uint64_t i = 0; i < 3; ++i) {
      const StepResult step = run_step(kSaturationQps, 0.12 * budget,
                                       Fnv1a("saturation", options.seed + i), true);
      record_generator("serve.saturation" + std::to_string(i), step);
      if (step.GeneratorValid()) {
        rates.push_back(step.completed_per_s);
      }
    }
    report->Check("serve.generator_valid", !rates.empty(),
                  "no saturation step was valid; " + generator_limits);
    if (!rates.empty()) {
      // The fastest step: the one least disturbed by other tenants of the host.
      report->Metric("throughput_per_s", *std::max_element(rates.begin(), rates.end()),
                     "1/s");
    }
    report->MemoryAt("saturation");
  } else {
    const double reference_seconds = 0.2 * budget;
    const uint64_t reference_seed = Fnv1a("reference", options.seed);
    // The untraced reference step runs again, up to three times in all,
    // while its generator is invalid (a stall of the host made it late).
    std::optional<StepResult> untraced;
    std::optional<StatsView> stats_before_reference;
    for (int attempt = 0; attempt < 3 && !(untraced && untraced->GeneratorValid());
         ++attempt) {
      TracingPaused paused;
      stats_before_reference = ScrapeStats(port);
      untraced = run_step(kReferenceQps, reference_seconds, reference_seed, true);
    }
    const StepResult& reference = *untraced;
    record_generator("serve.reference", reference);
    report->Check("serve.generator_valid", reference.GeneratorValid(),
                  "no reference step was valid; " + generator_limits);
    const auto stats_reference = ScrapeStats(port);
    report->MemoryAt("reference_step");
    // Reference step again, traced: spans and the tracing overhead.
    const StepResult traced =
        run_step(kReferenceQps, reference_seconds, reference_seed, false);
    report->Metric("obs.trace_overhead_share",
                   (traced.service_mean_us - reference.service_mean_us) /
                       reference.service_mean_us,
                   "ratio");
    report->Metric("gen.late_share", reference.late_share, "ratio");
    report->Metric("gen.late_p99_us", reference.late_p99_us, "us");
    report->Metric("netio.client.encode_us", reference.encode_us, "us");
    report->Metric("netio.client.decode_us", reference.decode_us, "us");
    report->Metric("serve.p50_ms", reference.p50_ms, "ms");
    report->Metric("serve.p99_ms", reference.p99_ms, "ms");
    report->Metric("serve.search_p99_ms", reference.kind_p99_ms[kSearch], "ms");
    report->Metric("serve.publish_p99_ms", reference.kind_p99_ms[kPublish], "ms");
    if (stats_before_reference && stats_reference) {
      const StatsView& a = *stats_before_reference;
      const StatsView& b = *stats_reference;
      uint64_t requests = 0;
      uint64_t bytes_out = 0;
      for (const char* kind : kKindNames) {
        const std::string name = kind;
        requests += CounterDelta(a, b, "netio.server.req." + name);
        bytes_out += CounterDelta(a, b, "netio.server.bytes_out." + name);
      }
      for (Kind kind : {kPublish, kSearch, kQuerySources, kBrowse}) {
        const std::string name = kKindNames[kind];
        const std::string hist = "netio.server.latency_us." + name;
        report->Metric("netio.server.dispatch_us." + name + ".p50",
                       HistogramDeltaQuantile(a, b, hist, 0.50), "us");
        report->Metric("netio.server.dispatch_us." + name + ".p99",
                       HistogramDeltaQuantile(a, b, hist, 0.99), "us");
      }
      report->Metric("netio.server.bytes_out_per_req",
                     requests == 0 ? 0
                                   : static_cast<double>(bytes_out) /
                                         static_cast<double>(requests),
                     "B");
      const auto rss = b.gauges.find("process.rss_bytes");
      report->Metric("netio.server.rss_mb",
                     rss == b.gauges.end() ? 0 : static_cast<double>(rss->second) / (1 << 20),
                     "MiB");
      const std::string all = "netio.server.latency_us.all";
      report->Metric("netio.transport_us.p50",
                     reference.service_p50_us - HistogramDeltaQuantile(a, b, all, 0.50),
                     "us");
      report->Metric("netio.transport_us.p99",
                     reference.service_p99_us - HistogramDeltaQuantile(a, b, all, 0.99),
                     "us");
    }
    ReplayIntoCore(setup.corpus,
                   MakeSchedule(kReferenceQps, reference_seconds, reference_seed), report);
    report->MemoryAt("core_replay");

    // Capacity against the SLO, untraced. From the ladder step at or below
    // the reference rate, jump kJump steps up while steps pass (down while
    // they miss), then bisect. A step that misses runs once more before it
    // counts as a miss, so one stall of the host cannot end the search.
    // The capacity is the completions per second of the highest passing
    // step.
    TracingPaused paused;
    const double probe_seconds = options.tiny ? 0.2 : 0.75;
    const int first = static_cast<int>(
        std::floor(std::log(kReferenceQps / kLadderBaseQps) / std::log(kLadderStep)));
    uint64_t probe = 0;
    std::map<int, double> served;
    auto passes = [&](int step) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        const StepResult result = run_step(Ladder(step), probe_seconds,
                                           Fnv1a("probe", options.seed + ++probe), false);
        if (result.Passes(kSloMs)) {
          served[step] = result.completed_per_s;
          return true;
        }
      }
      return false;
    };
    int lo = first;  // Highest step known to pass (-1: none).
    int hi = first;  // Lowest step known to miss.
    if (passes(first)) {
      for (hi = lo + kJump; passes(hi); hi += kJump) {
        lo = hi;
      }
    } else {
      for (lo = hi - kJump; lo >= 0 && !passes(lo); lo -= kJump) {
        hi = lo;
      }
      lo = std::max(lo, -1);
    }
    while (lo >= 0 && hi - lo > 1) {
      const int mid = lo + (hi - lo) / 2;
      (passes(mid) ? lo : hi) = mid;
    }
    report->Metric("serve.capacity_qps", lo >= 0 ? served[lo] : 0, "1/s");
    report->Env("serve.capacity_probes", static_cast<double>(probe));
  }

  // Gate: the server saw exactly the requests the client sent, by type.
  const auto stats_end = ScrapeStats(port);
  bool counts_match = stats_start.has_value() && stats_end.has_value();
  std::string mismatch;
  for (size_t k = 0; k < kKinds && counts_match; ++k) {
    const uint64_t served = CounterDelta(*stats_start, *stats_end,
                                         std::string("netio.server.req.") + kKindNames[k]);
    if (served != sent[k]) {
      counts_match = false;
      mismatch = std::string(kKindNames[k]) + ": sent " + std::to_string(sent[k]) +
                 ", server counted " + std::to_string(served);
    }
  }
  report->Check("serve.stats_counts_match_sends", counts_match, mismatch);
  report->Check("serve.no_failed_replies", reply_problems.empty() && generator.ok(),
                reply_problems + (generator.ok() ? "" : "a step ended with requests in flight"));
  const edk::netio::TcpServerStats server_stats = setup.server->stats();
  report->Check("serve.no_server_errors",
                server_stats.protocol_errors == 0 && server_stats.transport_errors == 0,
                std::to_string(server_stats.protocol_errors) + " protocol, " +
                    std::to_string(server_stats.transport_errors) + " transport");
  report->AddOps(attempted, failed);
  setup.server->Stop();
}

}  // namespace perfbench
