#include "dut.hpp"

#include "common/errors.hpp"

namespace ps3::dut {

SupplyModel::SupplyModel(double set_volts, double output_resistance)
    : setVolts_(set_volts), outputResistance_(output_resistance)
{
    if (output_resistance < 0.0)
        throw UsageError("SupplyModel: negative output resistance");
}

double
SupplyModel::voltage(double, double amps) const
{
    return setVolts_ - outputResistance_ * amps;
}

RailBinding::RailBinding(std::shared_ptr<Dut> dut, unsigned rail,
                         std::shared_ptr<SupplyModel> supply)
    : dut_(std::move(dut)), rail_(rail), supply_(std::move(supply))
{
    if (!dut_ || !supply_)
        throw UsageError("RailBinding: null dut or supply");
    if (rail_ >= dut_->railCount())
        throw UsageError("RailBinding: rail index out of range");
}

double
Dut::current(unsigned rail, double t, double volts)
{
    double watts = 0.0;
    double amps = 0.0;
    demandBlock(rail, &t, 1, &watts, &amps);
    return railCurrent(watts, amps, volts);
}

void
RailBinding::resolveBlock(const double *times, std::size_t n,
                          double *volts, double *amps) const
{
    // The output arrays hold the demand (watts in volts[], amps in
    // amps[]) until each instant is resolved in place.
    dut_->demandBlock(rail_, times, n, volts, amps);
    for (std::size_t i = 0; i < n; ++i) {
        const double t = times[i];
        const double watts = volts[i];
        const double demand_amps = amps[i];
        // Fixed point: start from the unloaded supply voltage, then
        // let the load and the source resistance settle. Two
        // iterations are ample for the milli-ohm source impedances
        // modelled here.
        double v = supply_->voltage(t, 0.0);
        double a = 0.0;
        for (int k = 0; k < 2; ++k) {
            a = railCurrent(watts, demand_amps, v);
            v = supply_->voltage(t, a);
        }
        volts[i] = v;
        amps[i] = a;
    }
}

} // namespace ps3::dut
