#include "resource.h"

#include <algorithm>
#include <cassert>

namespace paichar::sim {

Resource::Resource(EventQueue &eq, std::string name, double rate,
                   double overhead)
    : eq_(eq), name_(std::move(name)), rate_(rate), overhead_(overhead)
{
    assert(rate_ > 0.0);
    assert(overhead_ >= 0.0);
}

ServiceInterval
Resource::submit(double amount, Completion done)
{
    assert(amount >= 0.0);
    SimTime start = std::max(eq_.now(), next_free_);
    SimTime end = start + overhead_ + amount / rate_;
    next_free_ = end;
    busy_time_ += end - start;
    total_amount_ += amount;
    ++requests_;
    if (done) {
        eq_.schedule(end, [done = std::move(done), start, end] {
            done(start, end);
        });
    }
    return {start, end};
}

double
Resource::utilization(SimTime horizon) const
{
    assert(horizon > 0.0);
    return busy_time_ / horizon;
}

} // namespace paichar::sim
