#include "obs/heartbeat.hpp"

#include <cinttypes>
#include <cstdio>

#include "obs/diag.hpp"
#include "obs/report.hpp"

namespace gpo::obs {

namespace {

/// "86k" / "1.2M" style rate for the states/s field.
std::string human_rate(double per_sec) {
  char buf[32];
  if (per_sec >= 1e6)
    std::snprintf(buf, sizeof(buf), "%.1fM", per_sec / 1e6);
  else if (per_sec >= 1e3)
    std::snprintf(buf, sizeof(buf), "%.0fk", per_sec / 1e3);
  else
    std::snprintf(buf, sizeof(buf), "%.0f", per_sec);
  return buf;
}

std::string human_bytes(double bytes) {
  char buf[32];
  if (bytes >= 1024.0 * 1024.0 * 1024.0)
    std::snprintf(buf, sizeof(buf), "%.1fGB", bytes / (1024.0 * 1024.0 * 1024.0));
  else if (bytes >= 1024.0 * 1024.0)
    std::snprintf(buf, sizeof(buf), "%.1fMB", bytes / (1024.0 * 1024.0));
  else
    std::snprintf(buf, sizeof(buf), "%.0fKB", bytes / 1024.0);
  return buf;
}

}  // namespace

Heartbeat::Heartbeat(MetricsRegistry& reg, const Tracer* tracer,
                     double interval_s, std::ostream& out)
    : reg_(reg),
      tracer_(tracer),
      interval_s_(interval_s > 0 ? interval_s : 1.0),
      out_(out),
      states_(reg.counter("progress.states")),
      frontier_(reg.gauge("progress.frontier")),
      zdd_nodes_(reg.gauge("progress.zdd_nodes")),
      families_(reg.gauge("interner.families")) {}

Heartbeat::~Heartbeat() { stop(); }

void Heartbeat::start() {
  if (thread_.joinable()) return;
  uptime_.restart();
  rate_clock_.restart();
  last_states_ = states_.value();
  thread_ = std::thread([this] { run(); });
}

void Heartbeat::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  emit_line();
}

void Heartbeat::run() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto wake = std::chrono::duration<double>(interval_s_);
    if (cv_.wait_for(lock, wake, [this] { return stopping_; })) return;
    lock.unlock();
    emit_line();
    lock.lock();
  }
}

void Heartbeat::emit_line() {
  std::uint64_t states = states_.value();
  double dt = rate_clock_.lap();
  double rate = dt > 0 ? static_cast<double>(states - last_states_) / dt : 0;
  last_states_ = states;

  char line[256];
  std::snprintf(line, sizeof(line),
                "[progress %.1fs] states=%" PRIu64
                " (%s/s) frontier=%.0f rss=%s",
                uptime_.elapsed_seconds(), states,
                human_rate(rate).c_str(), frontier_.value(),
                human_bytes(static_cast<double>(peak_rss_bytes())).c_str());
  std::string text = line;
  if (double nodes = zdd_nodes_.value(); nodes > 0) {
    std::snprintf(line, sizeof(line), " zdd_nodes=%.0f", nodes);
    text += line;
  }
  if (double fam = families_.value(); fam > 0) {
    std::snprintf(line, sizeof(line), " families=%.0f", fam);
    text += line;
  }
  // Scheduler queue depth, when running under `julie batch`/`serve`. Looked
  // up by name (not registered here): its presence means a scheduler is
  // publishing into this registry.
  if (auto q = reg_.value("service.queue.depth")) {
    std::snprintf(line, sizeof(line), " queue=%.0f", *q);
    text += line;
  }
  if (tracer_ != nullptr) {
    std::string phase = tracer_->current_path();
    if (!phase.empty()) text += " phase=" + phase;
  }
  // Through the serialized sink: the ticker runs on its own thread, and
  // worker/CLI diagnostics must not interleave with the progress line.
  DiagSink::instance().line(out_, text);
}

}  // namespace gpo::obs
