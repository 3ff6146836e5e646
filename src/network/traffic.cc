#include "network/traffic.h"

#include <deque>
#include <queue>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "network/route.h"

namespace qsurf::network {

const char *
trafficPatternName(TrafficPattern pattern)
{
    switch (pattern) {
      case TrafficPattern::Uniform:   return "uniform";
      case TrafficPattern::Transpose: return "transpose";
      case TrafficPattern::Neighbor:  return "neighbor";
      case TrafficPattern::Hotspot:   return "hotspot";
    }
    return "?";
}

namespace {

struct Request
{
    Coord src;
    Coord dst;
    uint64_t issued;
};

Coord
pickDestination(TrafficPattern pattern, const Coord &src, int w,
                int h, Rng &rng)
{
    switch (pattern) {
      case TrafficPattern::Uniform:
        return Coord{static_cast<int>(rng.below(
                         static_cast<uint64_t>(w))),
                     static_cast<int>(rng.below(
                         static_cast<uint64_t>(h)))};
      case TrafficPattern::Transpose:
        return Coord{src.y % w, src.x % h};
      case TrafficPattern::Neighbor: {
        Coord d = src;
        if (rng.chance(0.5))
            d.x = std::min(w - 1, std::max(0, d.x + (rng.chance(0.5)
                                                         ? 1
                                                         : -1)));
        else
            d.y = std::min(h - 1, std::max(0, d.y + (rng.chance(0.5)
                                                         ? 1
                                                         : -1)));
        return d;
      }
      case TrafficPattern::Hotspot:
        return Coord{w / 2, h / 2};
    }
    panic("bad pattern");
}

} // namespace

TrafficResult
runTraffic(int width, int height, const TrafficOptions &opts)
{
    fatalIf(opts.injection_rate < 0 || opts.injection_rate > 1,
            "injection rate must be in [0,1], got ",
            opts.injection_rate);
    fatalIf(opts.hold_cycles < 1, "hold cycles must be >= 1");
    fatalIf(opts.cycles < 1, "need at least one cycle");

    Mesh mesh(width, height);
    Rng rng(opts.seed);
    TrafficResult out;

    std::deque<Request> pending;
    // (release cycle, owner id) of granted routes.
    std::priority_queue<std::pair<uint64_t, int>,
                        std::vector<std::pair<uint64_t, int>>,
                        std::greater<>>
        active;
    std::vector<Path> routes;
    double total_wait = 0;
    BfsScratch scratch;
    Path path;

    for (uint64_t cycle = 0; cycle < opts.cycles; ++cycle) {
        // Release expired routes.
        while (!active.empty() && active.top().first <= cycle) {
            int id = active.top().second;
            active.pop();
            mesh.release(routes[static_cast<size_t>(id)], id);
            ++out.completed;
        }

        // Inject new requests (Bernoulli per node).
        for (int y = 0; y < height; ++y)
            for (int x = 0; x < width; ++x)
                if (rng.chance(opts.injection_rate)) {
                    Coord src{x, y};
                    Coord dst = pickDestination(opts.pattern, src,
                                                width, height, rng);
                    if (!(dst == src)) {
                        pending.push_back(Request{src, dst, cycle});
                        ++out.offered;
                    }
                }

        // Grant from the head of the queue.
        int attempts = 0;
        size_t scan = 0;
        while (scan < pending.size()
               && attempts < opts.max_attempts_per_cycle) {
            const Request &req = pending[scan];
            // A fresh id holds nothing, so a failed claim leaves the
            // mesh as it was and a found detour is free to claim.
            int id = static_cast<int>(routes.size());
            dimensionOrderedRoute(req.src, req.dst, false, path);
            bool placed = mesh.tryClaim(path, id);
            if (!placed) {
                if (auto detour = adaptiveRoute(mesh, req.src, req.dst,
                                                id, scratch)) {
                    path = std::move(*detour);
                    placed = mesh.tryClaim(path, id);
                }
            }
            if (placed) {
                routes.push_back(std::move(path));
                active.emplace(
                    cycle + static_cast<uint64_t>(opts.hold_cycles),
                    id);
                total_wait += static_cast<double>(cycle - req.issued);
                ++out.granted;
                pending.erase(pending.begin()
                              + static_cast<long>(scan));
                continue;
            }
            ++attempts;
            ++scan;
        }

        mesh.tick();
    }

    out.mean_wait =
        out.granted ? total_wait / static_cast<double>(out.granted)
                    : 0.0;
    out.utilization = mesh.utilization();
    out.acceptance = out.offered
        ? static_cast<double>(out.granted)
            / static_cast<double>(out.offered)
        : 0.0;
    return out;
}

} // namespace qsurf::network
