#include "src/faucets/client.hpp"

#include <algorithm>
#include <cmath>

#include "src/sim/context.hpp"
#include "src/util/logging.hpp"

namespace faucets {

FaucetsClient::FaucetsClient(sim::SimContext& ctx, EntityId central,
                             std::unique_ptr<market::BidEvaluator> evaluator,
                             ClientConfig config)
    : sim::Entity("fc-" + config.username, ctx),
      network_(&ctx.network()),
      central_(central),
      evaluator_(std::move(evaluator)),
      config_(std::move(config)),
      submitted_ctr_(&ctx.metrics().counter("faucets_grid_jobs_submitted_total",
                                            "Submissions entering the market")),
      completed_ctr_(&ctx.metrics().counter(
          "faucets_grid_jobs_completed_total",
          "Jobs whose completion notice reached a client")),
      unplaced_ctr_(&ctx.metrics().counter("faucets_grid_jobs_unplaced_total",
                                           "Submissions no cluster would take")),
      migrations_ctr_(&ctx.metrics().counter("faucets_grid_migrations_total",
                                             "Jobs moved after an eviction notice")),
      watchdog_ctr_(&ctx.metrics().counter(
          "faucets_grid_watchdog_restarts_total",
          "Jobs restarted by the completion watchdog")),
      cycle_(*this, *this, central, config_.retry) {
  network_->attach(*this);
  auto& reg = ctx.metrics();
  bid_latency_hist_ = &reg.histogram("faucets_bid_latency_seconds",
                                     obs::exponential_buckets(0.001, 2.0, 16),
                                     "Submission to each bid's arrival");
  award_latency_hist_ = &reg.histogram("faucets_award_latency_seconds",
                                       obs::exponential_buckets(0.001, 2.0, 16),
                                       "Submission to confirmed award");
  inflight_gauge_ = &reg.gauge("faucets_market_inflight_requests",
                               "Submissions between submit and a terminal "
                               "outcome, grid-wide");
  // Time-series registration is idempotent by name: every client asks, one
  // buffer exists. Inert unless GridSystem arms periodic sampling.
  auto& sampler = ctx.sampler();
  sampler.add_gauge_series("faucets_market_inflight_requests", *inflight_gauge_,
                           "requests");
  sampler.add_counter_series("faucets_retry_attempts_total",
                             cycle_.retries().attempts(), "retries");
}

void FaucetsClient::login() {
  if (login_sent_) return;
  login_sent_ = true;
  login_retry_.reset();
  send_login();
}

void FaucetsClient::send_login() {
  auto msg = std::make_unique<proto::LoginRequest>();
  msg->username = config_.username;
  msg->password = config_.password;
  network_->send(*this, central_, std::move(msg));
  const double timeout = login_retry_.arm(config_.retry);
  login_retry_.set_timer(engine().schedule_after(timeout, [this] {
    if (session_) return;
    RetryLog& retries = cycle_.retries();
    retries.timeout(sim::MessageKind::kLogin, central_);
    if (!login_retry_.exhausted(config_.retry)) {
      retries.retry(RequestId{}, login_retry_.attempts());
      send_login();
      return;
    }
    retries.exhausted(RequestId{}, BidId{}, login_retry_.attempts());
    FAUCETS_WARN("fc") << config_.username
                       << ": login retries exhausted, failing queued jobs";
    login_failed_ = true;
    while (!pre_login_queue_.empty()) {
      auto contract = std::move(pre_login_queue_.front());
      pre_login_queue_.pop_front();
      fail_unsubmitted(contract);
    }
  }));
}

void FaucetsClient::fail_unsubmitted(const qos::QosContract& contract) {
  (void)contract;
  submitted_ctr_->inc();
  auto& spans = context().spans();
  SubmissionOutcome outcome;
  outcome.submit_time = now();
  outcome.status = SubmissionOutcome::Status::kTimedOut;
  outcome.has_deadline = contract.payoff.has_deadline();
  outcome.soft_deadline = contract.payoff.soft_deadline();
  outcome.hard_deadline = contract.payoff.hard_deadline();
  outcome.payoff_max = contract.payoff.max_payoff();
  outcome.span = spans.start_span(obs::SpanKind::kSubmission, now(), id());
  spans.instant_span(obs::SpanKind::kUnplaced, now(), id(), outcome.span);
  spans.end_span(outcome.span, now());
  ++unplaced_;
  unplaced_ctr_->inc();
  outcomes_.push_back(outcome);
}

void FaucetsClient::run_source(job::WorkloadSource& source) {
  // Called from outside the event loop: claim creation attribution so the
  // submission timers are attributed to this client.
  engine().set_current_entity(id().value());
  source_ = &source;
  login();
  arm_next_submission();
}

void FaucetsClient::run_workload(std::vector<job::JobRequest> requests) {
  owned_source_ = std::make_unique<job::VectorSource>(std::move(requests));
  run_source(*owned_source_);
}

void FaucetsClient::arm_next_submission() {
  const double t = source_->peek_next_submit_time();
  if (std::isinf(t)) return;  // drained; workload_drained() flips true
  // One timer in flight at a time: each firing pulls exactly one request
  // and re-arms, so a streaming source is drained at the pace of the
  // simulation clock instead of being preloaded into the event queue.
  engine().schedule_at(std::max(t, now()), [this] { on_submission_due(); });
}

void FaucetsClient::on_submission_due() {
  job::JobRequest req = source_->next();
  // Re-arm before submitting: the timer's place among same-time events then
  // depends only on the source's timeline, never on what submit() schedules.
  arm_next_submission();
  submit(req.contract);
}

void FaucetsClient::submit_now(const qos::QosContract& contract) {
  engine().set_current_entity(id().value());
  login();
  submit(contract);
}

void FaucetsClient::submit(const qos::QosContract& contract) {
  if (!session_) {
    if (login_failed_) {
      fail_unsubmitted(contract);
      return;
    }
    login();
    pre_login_queue_.push_back(contract);
    return;
  }
  const RequestId request = request_ids_.next();
  PendingJob pending;
  pending.outcome_index = outcomes_.size();
  pending.contract = contract;
  pending.root = context().spans().start_span(obs::SpanKind::kSubmission, now(), id());
  context().spans().set_user(pending.root, user_);
  submitted_ctr_->inc();

  SubmissionOutcome outcome;
  outcome.submit_time = now();
  outcome.span = pending.root;
  outcome.has_deadline = contract.payoff.has_deadline();
  outcome.soft_deadline = contract.payoff.soft_deadline();
  outcome.hard_deadline = contract.payoff.hard_deadline();
  outcome.payoff_max = contract.payoff.max_payoff();
  outcomes_.push_back(outcome);
  pending_.emplace(request, std::move(pending));
  inflight_gauge_->add(1.0);
  start_round(request);
}

void FaucetsClient::start_round(RequestId request) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  if (config_.broker) {
    send_brokered(request);
    return;
  }
  const PendingJob& pending = it->second;
  MarketOrder order;
  order.contract = pending.contract;
  order.session = *session_;
  order.username = config_.username;
  order.password = config_.password;
  order.user = user_;
  order.evaluator = evaluator_.get();
  order.home_cluster = config_.home_cluster;
  order.root = pending.root;
  cycle_.start(request, std::move(order));
}

void FaucetsClient::on_message(const sim::Message& msg) {
  switch (msg.kind()) {
    case sim::MessageKind::kLoginAck:
      handle_login(sim::message_cast<proto::LoginReply>(msg));
      break;
    case sim::MessageKind::kJobDone:
      handle_complete(sim::message_cast<proto::JobCompleteNotice>(msg));
      break;
    case sim::MessageKind::kEvicted:
      handle_evicted(sim::message_cast<proto::JobEvicted>(msg));
      break;
    case sim::MessageKind::kSubmitAck:
      handle_submit_reply(sim::message_cast<proto::SubmitJobReply>(msg));
      break;
    default:
      (void)cycle_.on_message(msg);
      break;
  }
}

void FaucetsClient::resubmit(RequestId request) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  pending.watchdog.cancel();
  pending.submit_retry.reset();
  ++pending.submit_attempt;
  // Close out the previous round (and its market spans); the next one opens
  // a fresh RFB span under the same submission root.
  cycle_.close(request);
  outcomes_[pending.outcome_index].status = SubmissionOutcome::Status::kPending;
  start_round(request);
}

void FaucetsClient::handle_evicted(const proto::JobEvicted& msg) {
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  // Resume from the checkpoint: only the remaining work goes back to the
  // market. Deadlines stay absolute — lost time is lost.
  pending.contract = pending.contract.reduced_by(msg.completed_work);
  ++migrations_;
  migrations_ctr_->inc();
  context().trace().record(obs::market_event(now(), id(),
                                             obs::TraceEventKind::kJobMigrated,
                                             msg.request, BidId{}, 0.0));
  FAUCETS_INFO("fc") << config_.username << ": job evicted, resubmitting "
                     << pending.contract.total_work() << " remaining work";
  resubmit(msg.request);
}

void FaucetsClient::handle_login(const proto::LoginReply& msg) {
  login_retry_.settle();
  if (!msg.ok) {
    FAUCETS_WARN("fc") << config_.username << ": login denied";
    return;
  }
  session_ = msg.session;
  user_ = msg.user;
  while (!pre_login_queue_.empty()) {
    auto contract = std::move(pre_login_queue_.front());
    pre_login_queue_.pop_front();
    submit(contract);
  }
}

void FaucetsClient::on_bid(RequestId request, const market::Bid& /*bid*/) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  bid_latency_hist_->observe(now() - outcomes_[it->second.outcome_index].submit_time);
}

void FaucetsClient::on_round_done(RequestId request,
                                  const proto::MarketResult& result) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  SubmissionOutcome& outcome = outcomes_[it->second.outcome_index];
  outcome.bids_received = result.bids_considered;
  if (result.cluster.valid()) {
    outcome.cluster = result.cluster;
    outcome.price = result.price;
  }
  if (result.status == SubmissionOutcome::Status::kPlaced) {
    cycle_.close(request);
    on_placed(request, result);
    return;
  }
  finish_request(request, result.status);
}

void FaucetsClient::arm_watchdog(RequestId request, double promised_completion) {
  if (!config_.watchdog_margin) return;
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  // Promises are estimates, not contracts: allow twice the promised
  // runtime before declaring the job lost, plus the fixed margin.
  const double promised_run = std::max(promised_completion - now(), 0.0);
  const double deadline = now() + 2.0 * promised_run + *config_.watchdog_margin;
  it->second.watchdog = engine().schedule_at(deadline, [this, request] {
    auto wit = pending_.find(request);
    if (wit == pending_.end()) return;
    if (outcomes_[wit->second.outcome_index].status !=
        SubmissionOutcome::Status::kPlaced) {
      return;
    }
    ++watchdog_restarts_;
    watchdog_ctr_->inc();
    context().trace().record(
        obs::market_event(now(), id(), obs::TraceEventKind::kWatchdogRestart,
                          request, BidId{}, 0.0));
    FAUCETS_WARN("fc") << config_.username
                       << ": watchdog fired, restarting lost job";
    resubmit(request);
  });
}

void FaucetsClient::on_placed(RequestId request, const proto::MarketResult& result) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;

  SubmissionOutcome& outcome = outcomes_[pending.outcome_index];
  outcome.status = SubmissionOutcome::Status::kPlaced;
  outcome.award_time = now();
  outcome.job = result.job;
  award_latency_.add(outcome.award_time - outcome.submit_time);
  award_latency_hist_->observe(outcome.award_time - outcome.submit_time);
  context().trace().record(obs::market_event(now(), id(),
                                             obs::TraceEventKind::kJobPlaced,
                                             request, BidId{}, result.price));

  arm_watchdog(request, result.promised_completion);

  // Upload input files to the chosen daemon.
  auto upload = std::make_unique<proto::UploadFiles>();
  upload->request = request;
  upload->job = result.job;
  upload->megabytes = pending.contract.resources.input_mb > 0.0
                          ? pending.contract.resources.input_mb
                          : config_.default_input_mb;
  network_->send(*this, result.daemon, std::move(upload));
}

void FaucetsClient::send_brokered(RequestId request) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  auto msg = std::make_unique<proto::SubmitJobRequest>();
  msg->request = request;
  msg->attempt = pending.submit_attempt;
  msg->session = *session_;
  msg->username = config_.username;
  msg->password = config_.password;
  msg->user = user_;
  msg->criteria = config_.criteria;
  msg->home_cluster = config_.home_cluster;
  msg->contract = pending.contract;
  msg->span = pending.root;
  network_->send(*this, *config_.broker, std::move(msg));
  // The broker runs a whole directory + bidding + award cycle before it can
  // answer, so each attempt waits the full market budget, not one RTT. The
  // broker deduplicates resubmissions by (client, request).
  (void)pending.submit_retry.arm(config_.retry);
  const double timeout = kBidTimeout + config_.retry.total_budget();
  pending.submit_retry.set_timer(engine().schedule_after(
      timeout, [this, request] { on_submit_timeout(request); }));
}

void FaucetsClient::on_submit_timeout(RequestId request) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  RetryLog& retries = cycle_.retries();
  retries.timeout(sim::MessageKind::kSubmit, *config_.broker);
  if (pending.submit_retry.exhausted(config_.retry)) {
    retries.exhausted(request, BidId{}, pending.submit_retry.attempts());
    finish_request(request, SubmissionOutcome::Status::kTimedOut);
    return;
  }
  retries.retry(request, pending.submit_retry.attempts());
  send_brokered(request);
}

void FaucetsClient::handle_submit_reply(const proto::SubmitJobReply& msg) {
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) return;
  it->second.submit_retry.settle();
  if (msg.result.status == SubmissionOutcome::Status::kPlaced &&
      outcomes_[it->second.outcome_index].status ==
          SubmissionOutcome::Status::kPlaced) {
    return;  // duplicate reply after a broker-side resend
  }
  on_round_done(msg.request, msg.result);
}

void FaucetsClient::handle_complete(const proto::JobCompleteNotice& msg) {
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;
  pending.watchdog.cancel();
  pending.submit_retry.settle();
  SubmissionOutcome& outcome = outcomes_[pending.outcome_index];
  outcome.status = SubmissionOutcome::Status::kCompleted;
  outcome.finish_time = msg.finish_time;
  outcome.payoff = pending.contract.payoff.value_at(msg.finish_time);
  total_spent_ += msg.price_charged;
  total_payoff_ += outcome.payoff;
  ++completed_;
  completed_ctr_->inc();
  context().spans().end_span(pending.root, now());
  pending_.erase(it);
  inflight_gauge_->add(-1.0);
}

void FaucetsClient::finish_request(RequestId request,
                                   SubmissionOutcome::Status status) {
  auto it = pending_.find(request);
  if (it == pending_.end()) return;
  PendingJob& pending = it->second;

  // Under chaos, "no bids" often really means "partitioned": run another
  // RFB round after a backoff instead of giving up, so a healed partition
  // or restarted daemon gets a fresh chance (re-bid).
  if (pending.round + 1 < config_.bid_rounds &&
      status != SubmissionOutcome::Status::kCompleted) {
    ++pending.round;
    const double delay = config_.retry.timeout_for(pending.round);
    cycle_.retries().retry(request, pending.round);
    engine().schedule_after(delay, [this, request] { resubmit(request); });
    return;
  }

  pending.watchdog.cancel();
  pending.submit_retry.settle();
  cycle_.close(request);
  outcomes_[pending.outcome_index].status = status;
  ++unplaced_;
  unplaced_ctr_->inc();
  auto& spans = context().spans();
  spans.instant_span(obs::SpanKind::kUnplaced, now(), id(), pending.root);
  spans.end_span(pending.root, now());
  context().trace().record(obs::market_event(now(), id(),
                                             obs::TraceEventKind::kJobUnplaced,
                                             request, BidId{}, 0.0));
  pending_.erase(it);
  inflight_gauge_->add(-1.0);
}

}  // namespace faucets
