// Broker agent: the scalable asynchronous bid evaluation of §5.3.
//
// "We envisage a system in which each Compute Server as well as client is
// represented by several agent processes running on the distributed faucets
// framework. [...] The client agents simply specify user-specific selection
// criteria to evaluation." A BrokerAgent runs next to the Central Server,
// takes one SubmitJobRequest per job, performs the directory lookup, the
// request-for-bids fan-out, the evaluation under the client's criteria, and
// the two-phase award — so the client exchanges O(1) messages per job
// instead of O(#servers). It runs the client's own market cycle
// (src/faucets/market_cycle.hpp) with the client's data; what is its own is
// deduplicating client resends and caching the reply.
#pragma once

#include <deque>
#include <map>
#include <unordered_map>
#include <utility>

#include "src/faucets/market_cycle.hpp"
#include "src/faucets/protocol.hpp"
#include "src/faucets/retry.hpp"
#include "src/market/evaluation.hpp"
#include "src/sim/network.hpp"

namespace faucets {

struct BrokerConfig {
  /// Backoff schedule for the broker's directory and reserve/commit
  /// exchanges.
  RetryPolicy retry;
};

class BrokerAgent final : public sim::Entity, private MarketCycle::Owner {
 public:
  BrokerAgent(sim::SimContext& ctx, EntityId central, BrokerConfig config = {});

  void on_message(const sim::Message& msg) override;

  [[nodiscard]] std::uint64_t submissions() const noexcept { return submissions_; }
  [[nodiscard]] std::uint64_t placed() const noexcept { return placed_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// Bids discarded by market regulation (§5.5.1).
  [[nodiscard]] std::uint64_t regulated_out() const noexcept {
    return cycle_.regulated_out();
  }
  /// Final replies still cached for client resends.
  [[nodiscard]] std::size_t cached_replies() const noexcept { return replied_.size(); }

 private:
  /// Whom a brokered round answers.
  struct Pending {
    EntityId client;
    RequestId client_request;
    std::uint32_t client_attempt = 0;
  };
  using ClientKey = std::pair<EntityId, RequestId>;
  /// A cached final reply and the sim time after which no resend of its
  /// attempt can still arrive.
  struct Replied {
    std::uint32_t attempt = 0;
    proto::SubmitJobReply reply;
    double expires = 0.0;
  };

  void handle_submit(const proto::SubmitJobRequest& msg);
  void on_round_done(RequestId id, const proto::MarketResult& result) override;
  /// Drop cached replies whose resend window has closed.
  void evict_replies();

  [[nodiscard]] const market::BidEvaluator& evaluator_for(
      proto::SelectionCriteria criteria) const;

  sim::Network* network_;
  MarketCycle cycle_;
  market::LeastCostEvaluator least_cost_;
  market::EarliestCompletionEvaluator earliest_completion_;
  market::SurplusEvaluator surplus_;
  IdGenerator<RequestId> ids_;
  std::unordered_map<RequestId, Pending> pending_;
  /// Deduplication of client resends: one live brokered cycle per
  /// (client, client request), and the final reply is cached so a retried
  /// SubmitJobRequest whose reply was lost gets the identical answer.
  std::map<ClientKey, RequestId> active_;
  std::map<ClientKey, Replied> replied_;
  /// Cached replies in caching order, for eviction once their window closes.
  std::deque<std::pair<double, ClientKey>> reply_expiry_;
  /// How long a client can keep resending one attempt: its whole submit
  /// schedule, max_attempts x (kBidTimeout + the retry budget). Clients
  /// share the broker's retry policy (GridSystem hands both GridConfig::retry).
  double resend_window_;
  std::uint64_t submissions_ = 0;
  std::uint64_t placed_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace faucets
