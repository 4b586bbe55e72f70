#include "src/faucets/market_cycle.hpp"

#include <algorithm>

#include "src/sim/context.hpp"

namespace faucets {

RetryLog::RetryLog(sim::Entity& self) : self_(&self) {
  auto& reg = self.context().metrics();
  attempts_ = &reg.counter("faucets_retry_attempts_total",
                           "Protocol exchanges re-sent after a timeout");
  timeouts_ = &reg.counter("faucets_retry_timeouts_total",
                           "Reply timeouts across all exchanges");
  exhausted_ = &reg.counter("faucets_retry_exhausted_total",
                            "Exchanges abandoned after the full backoff schedule");
}

void RetryLog::timeout(sim::MessageKind kind, EntityId peer) {
  timeouts_->inc();
  self_->context().trace().record(
      obs::net_event(self_->now(), self_->id(), peer, static_cast<std::uint8_t>(kind),
                     obs::DropReason::kTimeout));
}

void RetryLog::retry(RequestId request, int attempt) {
  attempts_->inc();
  self_->context().trace().record(
      obs::market_event(self_->now(), self_->id(), obs::TraceEventKind::kRetryAttempt,
                        request, BidId{}, static_cast<double>(attempt)));
}

void RetryLog::exhausted(RequestId request, BidId bid, int attempts) {
  exhausted_->inc();
  self_->context().trace().record(
      obs::market_event(self_->now(), self_->id(), obs::TraceEventKind::kRetryExhausted,
                        request, bid, static_cast<double>(attempts)));
}

MarketCycle::MarketCycle(sim::Entity& self, Owner& owner, EntityId central,
                         RetryPolicy retry)
    : self_(self),
      owner_(owner),
      network_(self.context().network()),
      central_(central),
      retry_(retry),
      log_(self) {}

MarketCycle::Round* MarketCycle::find(RequestId id) {
  auto it = rounds_.find(id);
  return it == rounds_.end() ? nullptr : &it->second;
}

void MarketCycle::start(RequestId id, MarketOrder order) {
  Round& round = rounds_.insert_or_assign(id, Round{}).first->second;
  round.order = std::move(order);
  send_directory_request(id, round);
}

void MarketCycle::close(RequestId id) {
  auto it = rounds_.find(id);
  if (it == rounds_.end()) return;
  Round& round = it->second;
  round.bid_timer.cancel();
  round.dir_retry.settle();
  round.award_retry.settle();
  auto& spans = self_.context().spans();
  spans.end_span(round.rfb, self_.now());
  spans.end_span(round.award, self_.now());
  rounds_.erase(it);
}

bool MarketCycle::on_message(const sim::Message& msg) {
  switch (msg.kind()) {
    case sim::MessageKind::kDirectoryReply:
      handle_directory(sim::message_cast<proto::DirectoryReply>(msg));
      return true;
    case sim::MessageKind::kBid:
      handle_bid(sim::message_cast<proto::BidReply>(msg));
      return true;
    case sim::MessageKind::kReserveAck:
      handle_reserve_reply(sim::message_cast<proto::ReserveReply>(msg));
      return true;
    case sim::MessageKind::kAwardAck:
      handle_award_ack(sim::message_cast<proto::AwardAck>(msg));
      return true;
    default:
      return false;
  }
}

void MarketCycle::send_directory_request(RequestId id, Round& round) {
  round.awaiting_directory = true;
  auto msg = std::make_unique<proto::DirectoryRequest>();
  msg->request = id;
  msg->session = round.order.session;
  msg->contract = round.order.contract;
  network_.send(self_, central_, std::move(msg));
  const double timeout = round.dir_retry.arm(retry_);
  round.dir_retry.set_timer(self_.engine().schedule_after(
      timeout, [this, id] { on_directory_timeout(id); }));
}

void MarketCycle::on_directory_timeout(RequestId id) {
  Round* round = find(id);
  if (round == nullptr) return;
  log_.timeout(sim::MessageKind::kDirectoryRequest, central_);
  if (round->dir_retry.exhausted(retry_)) {
    log_.exhausted(id, BidId{}, round->dir_retry.attempts());
    finish(id, *round, proto::SubmissionStatus::kTimedOut);
    return;
  }
  log_.retry(id, round->dir_retry.attempts());
  send_directory_request(id, *round);
}

void MarketCycle::handle_directory(const proto::DirectoryReply& msg) {
  Round* round = find(msg.request);
  // A duplicate reply (ours was slow, we retried, both arrived) must not
  // broadcast a second round of RFBs.
  if (round == nullptr || !round->awaiting_directory) return;
  round->awaiting_directory = false;
  round->dir_retry.settle();
  round->regulation = msg.regulation;
  if (msg.servers.empty()) {
    finish(msg.request, *round, proto::SubmissionStatus::kNoServers);
    return;
  }

  // Broadcast the request-for-bids to every matching daemon (§5.1's current
  // implementation).
  round->rfb = self_.context().spans().start_span(obs::SpanKind::kRfb, self_.now(),
                                                  self_.id(), round->order.root);
  self_.context().trace().record(obs::market_event(
      self_.now(), self_.id(), obs::TraceEventKind::kRfbIssued, msg.request, BidId{},
      static_cast<double>(msg.servers.size())));
  round->expected_bids = msg.servers.size();
  for (const auto& server : msg.servers) {
    auto rfb = std::make_unique<proto::RequestForBids>();
    rfb->request = msg.request;
    rfb->username = round->order.username;
    rfb->password = round->order.password;
    rfb->contract = round->order.contract;
    network_.send(self_, server.daemon, std::move(rfb));
  }
  round->bid_timer = self_.engine().schedule_after(
      kBidTimeout, [this, id = msg.request] { evaluate(id); });
}

void MarketCycle::handle_bid(const proto::BidReply& msg) {
  Round* round = find(msg.request);
  if (round == nullptr || round->evaluated) return;  // late bid after evaluation
  round->bids.push_back(msg.bid);
  if (!msg.bid.declined) {
    self_.context().spans().instant_span(obs::SpanKind::kBid, self_.now(), self_.id(),
                                         round->rfb, msg.bid.price);
    owner_.on_bid(msg.request, msg.bid);
  }
  if (round->bids.size() >= round->expected_bids) evaluate(msg.request);
}

std::vector<market::Bid> MarketCycle::mask(Round& round) {
  std::vector<market::Bid> candidates = round.bids;
  const std::optional<proto::PriceBand>& band = round.regulation;
  const double work = round.order.contract.total_work();
  const bool regulated = band && band->band > 1.0 && band->normal_unit_price > 0.0 &&
                         work > 0.0;
  for (auto& b : candidates) {
    if (b.declined) continue;
    if (std::find(round.refused.begin(), round.refused.end(), b.id) !=
        round.refused.end()) {
      b.declined = true;
      continue;
    }
    if (regulated) {
      const double unit = b.price / work;
      if (unit > band->normal_unit_price * band->band ||
          unit < band->normal_unit_price / band->band) {
        b.declined = true;
        ++regulated_out_;
      }
    }
  }
  return candidates;
}

std::optional<std::size_t> MarketCycle::select(
    const Round& round, const std::vector<market::Bid>& candidates) const {
  const market::BidEvaluator& evaluator = *round.order.evaluator;
  const qos::QosContract& contract = round.order.contract;
  if (round.order.home_cluster) {
    // Home-cluster preference (§5.5.3): any viable home bid wins outright.
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (!candidates[i].declined && candidates[i].cluster == *round.order.home_cluster) {
        const std::vector<market::Bid> only_home{candidates[i]};
        if (evaluator.select(only_home, contract, self_.now())) return i;
        break;
      }
    }
  }
  return evaluator.select(candidates, contract, self_.now());
}

void MarketCycle::evaluate(RequestId id) {
  Round* round = find(id);
  if (round == nullptr) return;
  round->evaluated = true;
  round->bid_timer.cancel();
  round->viable_bids = static_cast<std::size_t>(
      std::count_if(round->bids.begin(), round->bids.end(),
                    [](const market::Bid& b) { return !b.declined; }));

  const std::vector<market::Bid> candidates = mask(*round);
  const auto choice = select(*round, candidates);
  if (!choice) {
    finish(id, *round,
           round->bids.empty() ? proto::SubmissionStatus::kNoBids
                               : proto::SubmissionStatus::kAllRefused);
    return;
  }

  round->winner = candidates[*choice];
  round->reservation = ReservationId{};
  round->award_retry.reset();
  auto& spans = self_.context().spans();
  spans.end_span(round->rfb, self_.now());
  round->award = spans.start_span(obs::SpanKind::kAward, self_.now(), self_.id(),
                                  round->rfb.valid() ? round->rfb : round->order.root);
  spans.set_value(round->award, round->winner.price);
  send_reserve(id, *round);
}

void MarketCycle::send_reserve(RequestId id, Round& round) {
  round.phase = AwardPhase::kReserving;
  auto msg = std::make_unique<proto::ReserveRequest>();
  msg->request = id;
  msg->bid = round.winner.id;
  msg->username = round.order.username;
  msg->password = round.order.password;
  msg->user = round.order.user;
  msg->contract = round.order.contract;
  network_.send(self_, round.winner.daemon, std::move(msg));
  const double timeout = round.award_retry.arm(retry_);
  round.award_retry.set_timer(self_.engine().schedule_after(
      timeout, [this, id] { on_award_timeout(id); }));
}

void MarketCycle::send_commit(RequestId id, Round& round) {
  round.phase = AwardPhase::kCommitting;
  auto msg = std::make_unique<proto::CommitRequest>();
  msg->request = id;
  msg->reservation = round.reservation;
  msg->commit = true;
  msg->notify = round.order.notify;
  msg->notify_request = round.order.notify_request;
  msg->span = round.award;
  network_.send(self_, round.winner.daemon, std::move(msg));
  const double timeout = round.award_retry.arm(retry_);
  round.award_retry.set_timer(self_.engine().schedule_after(
      timeout, [this, id] { on_award_timeout(id); }));
}

void MarketCycle::handle_reserve_reply(const proto::ReserveReply& msg) {
  Round* round = find(msg.request);
  // Duplicate suppression: a late second reply (we retried and both landed)
  // or a stray reply after this round moved on is ignored.
  if (round == nullptr || round->phase != AwardPhase::kReserving) return;
  round->award_retry.settle();
  if (!msg.accepted) {
    give_up_on_winner(msg.request, *round);
    return;
  }
  round->reservation = msg.reservation;
  round->award_retry.reset();
  send_commit(msg.request, *round);
}

void MarketCycle::on_award_timeout(RequestId id) {
  Round* round = find(id);
  if (round == nullptr) return;
  const sim::MessageKind kind = round->phase == AwardPhase::kReserving
                                    ? sim::MessageKind::kReserve
                                    : sim::MessageKind::kCommit;
  log_.timeout(kind, round->winner.daemon);
  if (round->award_retry.exhausted(retry_)) {
    log_.exhausted(id, round->winner.id, round->award_retry.attempts());
    if (round->phase == AwardPhase::kCommitting && round->reservation.valid()) {
      // Best-effort abort: if the daemon is alive and still holds the
      // lease, release the capacity now rather than waiting for expiry.
      auto abort_msg = std::make_unique<proto::CommitRequest>();
      abort_msg->request = id;
      abort_msg->reservation = round->reservation;
      abort_msg->commit = false;
      network_.send(self_, round->winner.daemon, std::move(abort_msg));
    }
    give_up_on_winner(id, *round);
    return;
  }
  log_.retry(id, round->award_retry.attempts());
  if (round->phase == AwardPhase::kReserving) {
    send_reserve(id, *round);
  } else {
    send_commit(id, *round);
  }
}

void MarketCycle::give_up_on_winner(RequestId id, Round& round) {
  round.phase = AwardPhase::kNone;
  round.reservation = ReservationId{};
  round.award_retry.settle();
  self_.context().spans().end_span(round.award, self_.now());
  round.award = SpanId{};
  for (const auto& b : round.bids) {
    if (!b.declined && b.daemon == round.winner.daemon) round.refused.push_back(b.id);
  }
  evaluate(id);
}

void MarketCycle::handle_award_ack(const proto::AwardAck& msg) {
  Round* round = find(msg.request);
  // Only the commit phase expects an AwardAck; anything else is a duplicate
  // of an ack already processed.
  if (round == nullptr || round->phase != AwardPhase::kCommitting) return;
  round->award_retry.settle();
  if (!msg.accepted) {
    give_up_on_winner(msg.request, *round);
    return;
  }
  round->phase = AwardPhase::kNone;
  self_.context().spans().end_span(round->award, self_.now());
  proto::MarketResult result = result_of(*round, proto::SubmissionStatus::kPlaced);
  result.price = msg.price;
  result.daemon = msg.from;
  result.job = msg.job;
  result.promised_completion = round->winner.promised_completion;
  owner_.on_round_done(msg.request, result);
}

proto::MarketResult MarketCycle::result_of(const Round& round,
                                           proto::SubmissionStatus status) {
  proto::MarketResult result;
  result.status = status;
  result.bids_considered = round.viable_bids;
  result.cluster = round.winner.cluster;
  result.price = round.winner.price;
  return result;
}

void MarketCycle::finish(RequestId id, const Round& round,
                         proto::SubmissionStatus status) {
  owner_.on_round_done(id, result_of(round, status));
}

}  // namespace faucets
