#pragma once

namespace perfbench {

/// Host nanoseconds per call of the substrate's hottest public operations.
struct HostCalibration {
  double fiber_switch_ns = 0.0;     ///< one fiber context switch
  double advance_ns = 0.0;          ///< Scheduler::advance, 4 runnable fibers
  double plain_load_ns = 0.0;       ///< mem::plain_load
  double plain_store_ns = 0.0;      ///< mem::plain_store
  double htm_round_trip_ns = 0.0;   ///< begin + tx_load + commit
  double admit_on_arrival_ns = 0.0; ///< admit::Controller::on_arrival
};

HostCalibration calibrate();

}  // namespace perfbench
