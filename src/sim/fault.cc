#include "sim/fault.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace pm::sim {

namespace {

/** FNV-1a, so a site's RNG stream depends only on its name. */
std::uint64_t
hashName(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

bool
matches(const std::string &pattern, const std::string &name)
{
    if (!pattern.empty() && pattern.back() == '*')
        return name.rfind(pattern.substr(0, pattern.size() - 1), 0) == 0;
    return pattern == name;
}

/**
 * Reject inverted and overlapping down windows up front: an inverted
 * window would silently never fire, and overlaps double-count the
 * downtime accounting. Touching windows ({100,200},{200,300}) stay
 * legal — upAt() chases through them as one block.
 */
void
validateWindows(const std::vector<FaultWindow> &down,
                const std::string &where)
{
    for (const auto &w : down)
        if (w.to <= w.from)
            pm_fatal("fault: %s: link-down window [%llu, %llu) is "
                     "inverted or empty (need to > from)",
                     where.c_str(), (unsigned long long)w.from,
                     (unsigned long long)w.to);
    std::vector<FaultWindow> sorted = down;
    std::sort(sorted.begin(), sorted.end(),
              [](const FaultWindow &a, const FaultWindow &b) {
                  return a.from < b.from;
              });
    for (std::size_t i = 1; i < sorted.size(); ++i)
        if (sorted[i].from < sorted[i - 1].to)
            pm_fatal("fault: %s: link-down windows [%llu, %llu) and "
                     "[%llu, %llu) overlap (merge them or make them "
                     "adjacent)",
                     where.c_str(),
                     (unsigned long long)sorted[i - 1].from,
                     (unsigned long long)sorted[i - 1].to,
                     (unsigned long long)sorted[i].from,
                     (unsigned long long)sorted[i].to);
}

} // namespace

// ---- FaultSite. ---------------------------------------------------------

FaultSite::FaultSite(FaultModel &model, std::string name, FaultConfig cfg,
                     std::uint64_t seed)
    : _model(model),
      _name(std::move(name)),
      _cfg(std::move(cfg)),
      _rng(seed)
{
    validateWindows(_cfg.down, "site " + _name);
    // One uniform draw decides "any of the 64 bits flipped"; which
    // bit(s) is a follow-up draw. Equivalent to 64 Bernoulli trials
    // but perturbs the stream far less.
    if (_cfg.ber > 0.0)
        _pAnyFlip = 1.0 - std::pow(1.0 - _cfg.ber, 64.0);
}

bool
FaultSite::filterWord(std::uint64_t &word, Tick now)
{
    if (_cfg.drop > 0.0 && _rng.chance(_cfg.drop)) {
        ++_model.wordsDropped;
        pm_trace(now, "fault", "%s: dropped word %016llx", _name.c_str(),
                 (unsigned long long)word);
        return true;
    }
    if (_pAnyFlip > 0.0 && _rng.chance(_pAnyFlip)) {
        ++_model.wordsCorrupted;
        do {
            word ^= 1ull << _rng.below(64);
            ++_model.bitsFlipped;
        } while (_rng.chance(_pAnyFlip)); // rare multi-bit hit
        pm_trace(now, "fault", "%s: corrupted word -> %016llx",
                 _name.c_str(), (unsigned long long)word);
    }
    return false;
}

Tick
FaultSite::upAt(Tick now)
{
    Tick up = now;
    bool moved = true;
    while (moved) {
        moved = false;
        for (const auto &w : _cfg.down) {
            if (up >= w.from && up < w.to) {
                up = w.to;
                moved = true;
            }
        }
    }
    if (up > now && up != _lastBlockEnd) {
        // Count each (site, window) block once, from the first
        // attempt that ran into it.
        _lastBlockEnd = up;
        ++_model.downStalls;
        _model.linkDowntime.inc(static_cast<double>(up - now));
        pm_trace(now, "fault", "%s: link down until %llu", _name.c_str(),
                 (unsigned long long)up);
    }
    return up;
}

// ---- FaultModel. --------------------------------------------------------

FaultModel::FaultModel(std::uint64_t seed)
    : _seed(seed)
{
    _stats.add(&wordsCorrupted);
    _stats.add(&bitsFlipped);
    _stats.add(&wordsDropped);
    _stats.add(&downStalls);
    _stats.add(&linkDowntime);
}

void
FaultModel::configure(std::string pattern, FaultConfig cfg)
{
    validateWindows(cfg.down, "override '" + pattern + "'");
    _overrides.emplace_back(std::move(pattern), std::move(cfg));
}

FaultSite *
FaultModel::site(const std::string &name)
{
    auto it = _sites.find(name);
    if (it != _sites.end())
        return it->second.get();
    FaultConfig cfg = defaults;
    for (const auto &[pattern, over] : _overrides)
        if (matches(pattern, name))
            cfg = over;
    auto made = std::unique_ptr<FaultSite>(
        new FaultSite(*this, name, std::move(cfg), _seed ^ hashName(name)));
    FaultSite *raw = made.get();
    _sites.emplace(name, std::move(made));
    return raw;
}

bool
FaultModel::anyConfigured() const
{
    if (defaults.active())
        return true;
    for (const auto &[pattern, cfg] : _overrides)
        if (cfg.active())
            return true;
    return false;
}

} // namespace pm::sim
