#include "storage/ssd_dut.hpp"

#include "common/errors.hpp"

namespace ps3::storage {

SsdDutModel::SsdDutModel(SsdSpec spec, double rail_volts)
    : spec_(spec),
      railVolts_(rail_volts),
      workload_(std::make_shared<const SsdWorkloadPoint>())
{
    if (rail_volts <= 0.0)
        throw UsageError("SsdDutModel: non-positive rail voltage");
}

void
SsdDutModel::setWorkload(SsdWorkloadPoint point)
{
    if (point.utilisation < 0.0 || point.utilisation > 1.0
        || point.readFraction < 0.0 || point.readFraction > 1.0
        || point.dieOccupancy < 0.0 || point.dieOccupancy > 1.0)
        throw UsageError("SsdDutModel: workload point out of range");
    workload_.store(std::make_shared<const SsdWorkloadPoint>(point));
}

void
SsdDutModel::setPowerScale(double scale)
{
    if (scale <= 0.0 || scale > 1.0)
        throw UsageError("SsdDutModel: power scale out of (0, 1]");
    powerScale_.store(scale, std::memory_order_relaxed);
}

double
SsdDutModel::fullSpeedPower() const
{
    const auto point = workload_.load();
    const double busy_dies =
        spec_.totalDies() * point->dieOccupancy;
    const double die_watts =
        busy_dies
        * (point->readFraction * spec_.dieReadWatts
           + (1.0 - point->readFraction) * spec_.dieWriteWatts);
    return spec_.idleWatts
           + spec_.controllerWatts * point->utilisation + die_watts
           + (point->gcActive ? spec_.gcExtraWatts : 0.0);
}

double
SsdDutModel::truePower(double)
{
    const double scale =
        powerScale_.load(std::memory_order_relaxed);
    return spec_.idleWatts
           + (fullSpeedPower() - spec_.idleWatts) * scale;
}

void
SsdDutModel::demandBlock(unsigned rail, const double *times,
                         std::size_t n, double *watts, double *amps)
{
    if (rail != 0)
        throw UsageError("SsdDutModel: rail out of range");
    // A steady workload: the same power at every instant of a block.
    const double power = n == 0 ? 0.0 : truePower(times[0]);
    for (std::size_t i = 0; i < n; ++i) {
        watts[i] = power;
        amps[i] = 0.0;
    }
}

std::unique_ptr<dut::DvfsGovernor>
makeSsdGovernor(SsdDutModel &model)
{
    // NVMe operational power states PS0..PS4 as a pseudo-DVFS
    // ladder: frequency stands in for interface/die parallelism.
    return std::make_unique<dut::DvfsGovernor>(
        "ssd", dut::makeLadder(1000.0, 1.0, 350.0, 0.9, 5),
        [&model](double scale) { model.setPowerScale(scale); });
}

} // namespace ps3::storage
