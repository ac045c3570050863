#include "common/stats.hpp"

#include "common/log.hpp"

namespace asd
{

void
StatRegistry::add(const std::string &name, const Counter &counter)
{
    const auto [it, inserted] = counters_.emplace(name, &counter);
    (void)it;
    panicIfNot(inserted, "duplicate stat name: " + name);
}

std::uint64_t
StatRegistry::value(const std::string &name) const
{
    const auto it = counters_.find(name);
    panicIfNot(it != counters_.end(), "unknown stat: " + name);
    return it->second->value();
}

bool
StatRegistry::has(const std::string &name) const
{
    return find(name) != nullptr;
}

const Counter *
StatRegistry::find(const std::string &name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second;
}

std::vector<std::pair<std::string, std::uint64_t>>
StatRegistry::dump() const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto &[name, counter] : counters_)
        out.emplace_back(name, counter->value());
    return out;
}

} // namespace asd
