#include "util/governor.hh"

#include "util/logging.hh"

namespace replay {

const char *
pressureName(Pressure level)
{
    switch (level) {
      case Pressure::OK:        return "ok";
      case Pressure::SOFT:      return "soft";
      case Pressure::HARD:      return "hard";
      case Pressure::CRITICAL:  return "critical";
    }
    return "?";
}

ResourceGovernor::ResourceGovernor(GovernorConfig cfg) : cfg_(cfg)
{
    panic_if(cfg_.softFrac > cfg_.hardFrac ||
                 cfg_.hardFrac > cfg_.criticalFrac,
             "governor thresholds must be ordered soft <= hard <= "
             "critical");
}

unsigned
ResourceGovernor::registerConsumer(std::string name)
{
    consumers_.emplace_back(std::move(name), 0);
    return unsigned(consumers_.size() - 1);
}

void
ResourceGovernor::update(unsigned id, size_t live_bytes)
{
    panic_if(id >= consumers_.size(), "governor consumer %u unknown",
             id);
    size_t &slot = consumers_[id].second;
    live_ = live_ - slot + live_bytes;
    slot = live_bytes;
    if (live_ > peak_)
        peak_ = live_;
    recompute();
}

size_t
ResourceGovernor::consumerBytes(unsigned id) const
{
    panic_if(id >= consumers_.size(), "governor consumer %u unknown",
             id);
    return consumers_[id].second;
}

bool
ResourceGovernor::allocWouldFail()
{
    if (!allocFail_ || !allocFail_())
        return false;
    ++injectedAllocFails_;
    return true;
}

void
ResourceGovernor::recompute()
{
    Pressure next = Pressure::OK;
    if (enabled()) {
        const double frac =
            double(live_) / double(cfg_.budgetBytes);
        if (frac >= cfg_.criticalFrac)
            next = Pressure::CRITICAL;
        else if (frac >= cfg_.hardFrac)
            next = Pressure::HARD;
        else if (frac >= cfg_.softFrac)
            next = Pressure::SOFT;
    }
    if (next == pressure_)
        return;
    // Count upward entries per level (a jump straight from OK to
    // CRITICAL counts once, as a critical transition) and returns to
    // full service.
    if (next > pressure_) {
        switch (next) {
          case Pressure::SOFT:      ++softTransitions_; break;
          case Pressure::HARD:      ++hardTransitions_; break;
          case Pressure::CRITICAL:  ++criticalTransitions_; break;
          case Pressure::OK:        break;
        }
    } else if (next == Pressure::OK) {
        ++okReturns_;
    }
    pressure_ = next;
}

} // namespace replay
