#include "telemetry/alerts.hpp"

#include <algorithm>
#include <cstdio>

#include "common/logging.hpp"

namespace lidc::telemetry {

namespace {

double lookup(const std::map<std::string, double>& values,
              const std::string& series) {
  auto it = values.find(series);
  return it == values.end() ? 0.0 : it->second;
}

/// Deterministic short double rendering for logs and reasons.
std::string num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string stamp(sim::Time at) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t=%.6fs",
                static_cast<double>(at.toNanos()) / 1e9);
  return buf;
}

}  // namespace

AlertEngine::AlertEngine(sim::Simulator& sim, AlertEngineOptions options)
    : sim_(sim), options_(options) {}

AlertEngine::~AlertEngine() { stop(); }

void AlertEngine::addThresholdRule(std::string name, std::string series,
                                   AlertComparison cmp, double threshold,
                                   int forCount) {
  Rule rule;
  rule.kind = Rule::Kind::kThreshold;
  rule.name = std::move(name);
  rule.series = std::move(series);
  rule.cmp = cmp;
  rule.threshold = threshold;
  rule.forCount = std::max(1, forCount);
  rules_.push_back(std::move(rule));
}

void AlertEngine::addSloRule(SloSpec spec) {
  Rule rule;
  rule.kind = Rule::Kind::kSlo;
  rule.name = spec.name;
  rule.series = spec.primarySeries();
  rule.slo = std::make_unique<SloTracker>(std::move(spec));
  rules_.push_back(std::move(rule));
}

void AlertEngine::addAnomalyRule(std::string name, std::string series,
                                 AnomalyOptions options) {
  Rule rule;
  rule.kind = Rule::Kind::kAnomaly;
  rule.name = std::move(name);
  rule.series = std::move(series);
  rule.detector = std::make_unique<EwmaDetector>(options);
  rules_.push_back(std::move(rule));
}

int AlertEngine::evaluate() {
  counters_->evaluations.inc();
  if (!source_) return 0;
  const std::map<std::string, double> values = source_();
  int transitions = 0;
  for (Rule& rule : rules_) {
    bool breach = false;
    double value = 0.0;
    std::string reason;
    switch (rule.kind) {
      case Rule::Kind::kThreshold: {
        // An absent series never breaches: a "health below x" rule must
        // not fire before the first scrape has produced the series.
        const auto it = values.find(rule.series);
        if (it == values.end()) {
          rule.consecutive = 0;
          break;
        }
        value = it->second;
        const bool hit = rule.cmp == AlertComparison::kAbove
                             ? value > rule.threshold
                             : value < rule.threshold;
        rule.consecutive = hit ? rule.consecutive + 1 : 0;
        breach = rule.consecutive >= rule.forCount;
        if (breach) {
          reason = rule.series + " = " + num(value) +
                   (rule.cmp == AlertComparison::kAbove ? " > " : " < ") +
                   num(rule.threshold) + " for " +
                   std::to_string(rule.consecutive) + " evals";
        }
        break;
      }
      case Rule::Kind::kSlo: {
        const SloStatus status = rule.slo->evaluate(sim_.now(), values);
        breach = status.breached;
        value = status.gatingBurnRate;
        if (breach) {
          reason = "error budget burning at " + num(status.gatingBurnRate) +
                   "x across all " + std::to_string(status.windows.size()) +
                   " windows (current=" + num(status.currentValue) + ")";
        }
        break;
      }
      case Rule::Kind::kAnomaly: {
        const AnomalyPoint point =
            rule.detector->observe(lookup(values, rule.series));
        breach = point.anomalous;
        value = point.value;
        if (breach) {
          reason = rule.series + " = " + num(point.value) + " is " +
                   num(point.z) + " sigma from EWMA mean " + num(point.mean);
        }
        break;
      }
    }
    if (breach && rule.activeAlert == 0) {
      fire(rule, value, std::move(reason));
      ++transitions;
    } else if (!breach && rule.activeAlert != 0) {
      resolve(rule, value);
      ++transitions;
    }
  }
  return transitions;
}

void AlertEngine::fire(Rule& rule, double value, std::string reason) {
  Alert alert;
  alert.id = ++next_id_;
  alert.rule = rule.name;
  alert.series = rule.series;
  alert.value = value;
  alert.reason = std::move(reason);
  alert.firedAt = sim_.now();
  alert.firing = true;
  // Snapshot the recorder BEFORE logging the fire, so the window holds
  // the events that led here, not the alert's own announcement.
  if (recorder_ != nullptr) alert.events = recorder_->lastN(options_.eventWindow);
  rule.activeAlert = alert.id;
  counters_->fired.inc();
  ++revision_;
  appendLog(alert, /*fired=*/true);
  LIDC_LOG(kWarn, "alerts") << "fired #" << alert.id << " rule=" << alert.rule
                            << " series=" << alert.series << " " << alert.reason;
  alerts_.push_back(std::move(alert));
}

void AlertEngine::resolve(Rule& rule, double value) {
  for (Alert& alert : alerts_) {
    if (alert.id != rule.activeAlert) continue;
    alert.firing = false;
    alert.resolvedAt = sim_.now();
    alert.value = value;
    counters_->resolved.inc();
    ++revision_;
    appendLog(alert, /*fired=*/false);
    LIDC_LOG(kInfo, "alerts") << "resolved #" << alert.id
                              << " rule=" << alert.rule;
    break;
  }
  rule.activeAlert = 0;
  rule.consecutive = 0;
}

void AlertEngine::appendLog(const Alert& alert, bool fired) {
  std::string line = stamp(fired ? alert.firedAt : alert.resolvedAt);
  line += " alert=" + std::to_string(alert.id);
  line += " rule=" + alert.rule;
  line += fired ? " state=fired" : " state=resolved";
  line += " series=" + alert.series;
  line += " value=" + num(alert.value);
  line += " events=" + std::to_string(alert.events.size());
  if (fired && !alert.reason.empty()) line += " reason=" + alert.reason;
  log_lines_.push_back(std::move(line));
  while (log_lines_.size() > options_.maxLogLines) {
    log_lines_.erase(log_lines_.begin());
  }
}

void AlertEngine::start() {
  if (running_) return;
  running_ = true;
  evaluateTick();
}

void AlertEngine::stop() {
  running_ = false;
  tick_.cancel();
}

void AlertEngine::evaluateTick() {
  if (!running_) return;
  evaluate();
  tick_ = sim_.scheduleAfter(options_.evaluateInterval, [this] { evaluateTick(); });
}

const Alert* AlertEngine::alert(std::uint64_t id) const {
  for (const Alert& alert : alerts_) {
    if (alert.id == id) return &alert;
  }
  return nullptr;
}

std::size_t AlertEngine::firingCount() const {
  return static_cast<std::size_t>(
      std::count_if(alerts_.begin(), alerts_.end(),
                    [](const Alert& a) { return a.firing; }));
}

std::string AlertEngine::Rule::describe() const {
  switch (kind) {
    case Kind::kThreshold:
      return "threshold " + series +
             (cmp == AlertComparison::kAbove ? " > " : " < ") + [&] {
               char buf[32];
               std::snprintf(buf, sizeof(buf), "%.6g", threshold);
               return std::string(buf);
             }() + " for " + std::to_string(forCount) + " evals";
    case Kind::kSlo: {
      const SloSpec& spec = slo->spec();
      std::string windows;
      for (const SloWindow& w : spec.windows) {
        if (!windows.empty()) windows += "/";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0fs",
                      static_cast<double>(w.window.toNanos()) / 1e9);
        windows += buf;
      }
      char target[32];
      std::snprintf(target, sizeof(target), "%.6g", spec.target);
      return "slo target=" + std::string(target) + " windows=" + windows +
             " on " + series;
    }
    case Kind::kAnomaly: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", detector->options().zThreshold);
      return "anomaly " + series + " |z| >= " + buf;
    }
  }
  return "?";
}

std::string AlertEngine::explainAlert(std::uint64_t id) const {
  const Alert* a = alert(id);
  if (a == nullptr) return "";
  const Rule* owner = nullptr;
  for (const Rule& rule : rules_) {
    if (rule.name == a->rule) {
      owner = &rule;
      break;
    }
  }
  std::string out = "alert #" + std::to_string(a->id) + " rule=" + a->rule;
  out += a->firing ? " state=firing" : " state=resolved";
  out += " fired " + stamp(a->firedAt);
  if (!a->firing) out += " resolved " + stamp(a->resolvedAt);
  out += "\n";
  if (owner != nullptr) out += "  rule: " + owner->describe() + "\n";
  out += "  series: " + a->series + " = " + num(a->value) + "\n";
  if (!a->reason.empty()) out += "  reason: " + a->reason + "\n";
  out += "  events (" + std::to_string(a->events.size()) + "):\n";
  for (const FlightEvent& event : a->events) {
    std::string line = FlightRecorder::render({event});
    out += "    " + line;
  }
  return out;
}

std::string AlertEngine::serializedLog() const {
  std::string out;
  for (const std::string& line : log_lines_) {
    out += line;
    out += '\n';
  }
  return out;
}

void AlertEngine::attachTelemetry(MetricsRegistry& registry) {
  registry.adopt("lidc_alerts_fired_total", {}, {counters_, &counters_->fired});
  registry.adopt("lidc_alerts_resolved_total", {}, {counters_, &counters_->resolved});
  registry.adopt("lidc_alerts_evaluations_total", {},
                 {counters_, &counters_->evaluations});
  collector_ = registry.registerCollector([this, &registry] {
    registry.gauge("lidc_alerts_firing").set(static_cast<double>(firingCount()));
  });
}

}  // namespace lidc::telemetry
