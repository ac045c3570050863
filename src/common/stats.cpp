#include "common/stats.hpp"

#include "common/log.hpp"

namespace asd
{

void
StatRegistry::add(const std::string &name, const Counter &counter)
{
    const auto [it, inserted] = counters_.emplace(name, &counter);
    (void)it;
    if (!inserted)
        panic("duplicate stat name: " + name);
}

std::uint64_t
StatRegistry::value(const std::string &name) const
{
    const auto it = counters_.find(name);
    if (it == counters_.end())
        panic("unknown stat: " + name);
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

std::vector<const Counter *>
StatRegistry::findAll(std::string_view spec) const
{
    std::vector<const Counter *> found;
    for (const std::string &name : statNames(spec)) {
        const std::size_t star = name.find("t*");
        if (star == std::string::npos) {
            if (const Counter *counter = find(name))
                found.push_back(counter);
            continue;
        }
        for (std::uint32_t t = 0;; ++t) {
            const Counter *counter =
                find(name.substr(0, star + 1) + std::to_string(t) +
                     name.substr(star + 2));
            if (!counter)
                break;
            found.push_back(counter);
        }
    }
    return found;
}

std::uint64_t
StatRegistry::sum(std::string_view spec) const
{
    std::uint64_t total = 0;
    for (const Counter *counter : findAll(spec))
        total += counter->value();
    return total;
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

std::vector<std::string>
statNames(std::string_view spec)
{
    std::vector<std::string> names;
    while (!spec.empty()) {
        const std::size_t plus = spec.find('+');
        names.emplace_back(spec.substr(0, plus));
        spec = plus == std::string_view::npos ? std::string_view()
                                               : spec.substr(plus + 1);
    }
    return names;
}

} // namespace asd
