/**
 * @file
 * The experiment registry: every figure and table of the paper's
 * evaluation, declared once as a (workload x column) grid together
 * with the renderer that prints it the way the paper reports it.
 *
 * tools/replaybench runs and renders these targets; the golden tests
 * and tools/perfgate take their RP/RPO grid from the table3 entry, so
 * the goldens pin exactly the grid replaybench runs.  Column labels
 * feed every cell's fingerprint (RunStats::config), so relabelling a
 * column changes its target's digest.
 */

#ifndef REPLAY_SIM_EXPERIMENTS_HH
#define REPLAY_SIM_EXPERIMENTS_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/sweep.hh"

namespace replay::sim {

/** A labelled grid column: a machine, a scope or an ablation. */
using Column = std::pair<std::string, SimConfig>;

/**
 * A (workload x column) result grid, simulated in one parallel sweep
 * and indexed row-major.
 */
struct Grid
{
    std::vector<const trace::Workload *> rows;
    std::vector<Column> cols;
    SweepResult result;

    /** Simulate every cell; bit-identical for any worker count. */
    void
    run(const SweepOptions &opts = {})
    {
        result = runSweep(gridCells(rows, cols), opts);
    }

    const RunStats &
    at(size_t row, size_t col) const
    {
        return result.cells.at(row * cols.size() + col);
    }
};

/** One paper figure or table. */
struct Experiment
{
    const char *name;           ///< replaybench target name
    const char *description;
    std::vector<const trace::Workload *> rows;
    std::vector<Column> cols;

    /** Print the paper's table and note from a run of grid(). */
    void (*render)(const Grid &ran);

    /** The experiment's grid, not yet run. */
    Grid grid() const { return {rows, cols, {}}; }
};

/** Every experiment, in replaybench's default order. */
const std::vector<Experiment> &experiments();

/** The experiment named @p name, or nullptr if there is none. */
const Experiment *findExperiment(std::string_view name);

} // namespace replay::sim

#endif // REPLAY_SIM_EXPERIMENTS_HH
