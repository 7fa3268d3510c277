/**
 * @file
 * Ablations of the design choices DESIGN.md calls out — parameters the
 * paper fixes without sweeping.  Not a paper figure; this quantifies
 * how sensitive the reproduction is to each choice.
 *
 *   - frame size cap (paper: 256 micro-ops)
 *   - frame cache capacity (paper: 16k micro-ops)
 *   - bias promotion threshold (companion-paper policy; ours 15/16)
 *   - speculative memory optimization on/off (§3.4)
 */

#include "common.hh"

using namespace replay;

namespace {

const char *APPS[] = {"crafty", "vortex", "excel"};

void
sweep(const char *title, std::vector<sim::Column> points)
{
    std::printf("%s\n", title);

    sim::Grid grid;
    for (const char *app : APPS)
        grid.rows.push_back(&trace::findWorkload(app));
    grid.cols = std::move(points);
    grid.run();

    TextTable table;
    std::vector<std::string> header{"app"};
    for (const auto &[label, cfg] : grid.cols)
        header.push_back(label);
    table.header(std::move(header));

    for (size_t r = 0; r < grid.rows.size(); ++r) {
        std::vector<std::string> row{grid.rows[r]->name};
        for (size_t c = 0; c < grid.cols.size(); ++c)
            row.push_back(TextTable::fixed(grid.at(r, c).ipc(), 3));
        table.row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
    bench::throughputFooter(grid.result);
}

} // namespace

int
main()
{
    bench::banner("Design-choice ablations (RPO IPC)",
                  "DESIGN.md implementation decisions; not a paper "
                  "figure");

    {
        std::vector<sim::Column> points;
        for (const unsigned cap : {64u, 128u, 256u, 512u}) {
            auto cfg = sim::SimConfig::make(sim::Machine::RPO);
            cfg.engine.constructor.maxUops = cap;
            points.emplace_back("cap=" + std::to_string(cap), cfg);
        }
        sweep("frame size cap (micro-ops; paper uses 256):", points);
    }
    {
        std::vector<sim::Column> points;
        for (const unsigned kuops : {4u, 8u, 16u, 32u}) {
            auto cfg = sim::SimConfig::make(sim::Machine::RPO);
            cfg.engine.fcacheCapacityUops = kuops * 1024;
            points.emplace_back(std::to_string(kuops) + "k", cfg);
        }
        sweep("frame cache capacity (paper uses 16k micro-ops):",
              points);
    }
    {
        std::vector<sim::Column> points;
        const std::pair<unsigned, unsigned> thresholds[] = {
            {7, 8}, {15, 16}, {31, 32}, {63, 64}};
        for (const auto &[num, den] : thresholds) {
            auto cfg = sim::SimConfig::make(sim::Machine::RPO);
            cfg.engine.constructor.biasPromoteNum = num;
            cfg.engine.constructor.biasPromoteDen = den;
            points.emplace_back(
                std::to_string(num) + "/" + std::to_string(den), cfg);
        }
        sweep("branch promotion threshold (ours: 15/16):", points);
    }
    {
        std::vector<sim::Column> points;
        auto spec_on = sim::SimConfig::make(sim::Machine::RPO);
        auto spec_off = sim::SimConfig::make(sim::Machine::RPO);
        spec_off.engine.optConfig.speculativeMem = false;
        points.emplace_back("spec-mem on", spec_on);
        points.emplace_back("spec-mem off", spec_off);
        sweep("speculative memory optimization (§3.4):", points);
    }
    return 0;
}
