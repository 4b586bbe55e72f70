#include "src/faucets/broker.hpp"

#include "src/sim/context.hpp"

namespace faucets {

BrokerAgent::BrokerAgent(sim::SimContext& ctx, EntityId central, BrokerConfig config)
    : sim::Entity("broker", ctx),
      network_(&ctx.network()),
      cycle_(*this, *this, central, config.retry),
      resend_window_(config.retry.max_attempts *
                     (kBidTimeout + config.retry.total_budget())) {
  network_->attach(*this);
}

const market::BidEvaluator& BrokerAgent::evaluator_for(
    proto::SelectionCriteria criteria) const {
  switch (criteria) {
    case proto::SelectionCriteria::kLeastCost:
      return least_cost_;
    case proto::SelectionCriteria::kEarliestCompletion:
      return earliest_completion_;
    case proto::SelectionCriteria::kSurplus:
      return surplus_;
  }
  return least_cost_;
}

void BrokerAgent::on_message(const sim::Message& msg) {
  if (msg.kind() == sim::MessageKind::kSubmit) {
    handle_submit(sim::message_cast<proto::SubmitJobRequest>(msg));
    return;
  }
  (void)cycle_.on_message(msg);
}

void BrokerAgent::handle_submit(const proto::SubmitJobRequest& msg) {
  const auto key = std::make_pair(msg.from, msg.request);
  // A resend while the original cycle is still running: the answer is on its
  // way, starting a second market cycle would double-award the job.
  if (active_.contains(key)) return;
  // A resend of the same attempt after we already answered means our reply
  // was lost in transit: re-send the cached reply verbatim instead of
  // re-running the market. A higher attempt is a genuine resubmission (the
  // job was evicted, or the client opened a fresh bidding round) and gets a
  // whole new market cycle.
  if (auto done = replied_.find(key); done != replied_.end()) {
    if (msg.attempt <= done->second.attempt) {
      network_->send(*this, msg.from,
                     std::make_unique<proto::SubmitJobReply>(done->second.reply));
      return;
    }
    replied_.erase(done);
  }

  ++submissions_;
  const RequestId id = ids_.next();  // broker-side: replies correlate back to us
  pending_.emplace(id, Pending{msg.from, msg.request, msg.attempt});
  active_.emplace(key, id);
  MarketOrder order;
  order.contract = msg.contract;
  order.session = msg.session;
  order.username = msg.username;
  order.password = msg.password;
  order.user = msg.user;
  order.evaluator = &evaluator_for(msg.criteria);
  order.home_cluster = msg.home_cluster;
  order.notify = msg.from;  // completion notices bypass the broker
  order.notify_request = msg.request;
  order.root = msg.span;
  cycle_.start(id, std::move(order));
}

void BrokerAgent::evict_replies() {
  // Entries are queued in caching order. The window's network term can grow
  // mid-run (a new jitter treatment), so the queue is only nearly sorted; an
  // entry behind a later one is dropped late, never early.
  while (!reply_expiry_.empty() && reply_expiry_.front().first <= now()) {
    const auto it = replied_.find(reply_expiry_.front().second);
    // A genuine resubmission re-cached this key later: that entry is newer.
    if (it != replied_.end() && it->second.expires <= now()) replied_.erase(it);
    reply_expiry_.pop_front();
  }
}

void BrokerAgent::on_round_done(RequestId round, const proto::MarketResult& result) {
  evict_replies();
  auto it = pending_.find(round);
  if (it == pending_.end()) return;
  const Pending client = it->second;
  pending_.erase(it);
  if (result.status == proto::SubmissionStatus::kPlaced) {
    ++placed_;
  } else {
    ++failed_;
  }
  cycle_.close(round);
  const auto key = std::make_pair(client.client, client.client_request);
  proto::SubmitJobReply reply;
  reply.request = client.client_request;
  reply.result = result;
  // The last resend of this attempt left the client within resend_window_
  // of its first send, which precedes now, and spends at most the network's
  // worst-case delay on the wire.
  const double expires =
      now() + resend_window_ +
      network_->delay(client.client, id(), proto::SubmitJobRequest::kBytes) +
      network_->faults().config().jitter;
  replied_[key] = Replied{client.client_attempt, reply, expires};
  reply_expiry_.emplace_back(expires, key);
  network_->send(*this, client.client,
                 std::make_unique<proto::SubmitJobReply>(std::move(reply)));
  active_.erase(key);
}

}  // namespace faucets
