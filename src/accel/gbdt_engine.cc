/**
 * @file
 * GBDT engine implementation.
 */

#include "accel/gbdt_engine.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/units.hh"
#include "obs/request_context.hh"
#include "obs/span_tracer.hh"

namespace enzian::accel {

GbdtEngine::GbdtEngine(std::string name, EventQueue &eq,
                       const GbdtEnsemble &ensemble, const Config &cfg)
    : SimObject(std::move(name), eq), ensemble_(ensemble), cfg_(cfg)
{
    if (cfg_.engines == 0 || cfg_.clock_hz <= 0 ||
        cfg_.cycles_per_tuple <= 0)
        fatal("GBDT engine '%s': bad configuration",
              SimObject::name().c_str());
    if (ensemble_.features() > cfg_.features)
        fatal("GBDT engine '%s': ensemble indexes %u features, tuples "
              "carry %u",
              SimObject::name().c_str(), ensemble_.features(),
              cfg_.features);
    stats().addCounter("served_batches", &served_);
    stats().addAccumulator("serve_queue_wait_ns", &queueWaitNs_);
    stats().addAccumulator("serve_service_ns", &serviceNs_);
}

double
GbdtEngine::steadyIntervalSeconds(bool *transfer_bound) const
{
    // Steady state: one tuple retires per interval, where the
    // interval is the slower of the (parallel) compute pipelines and
    // the host link streaming tuples in and results out.
    const double compute_interval_s =
        cfg_.cycles_per_tuple / (cfg_.clock_hz * cfg_.engines);
    const double wire_bytes = tupleBytes() + sizeof(float); // in + out
    const double transfer_interval_s = wire_bytes / cfg_.host_bw;
    if (transfer_bound)
        *transfer_bound = transfer_interval_s > compute_interval_s;
    return std::max(compute_interval_s, transfer_interval_s);
}

double
GbdtEngine::serviceSeconds(std::uint64_t count) const
{
    return cfg_.fill_latency_ns * 1e-9 +
           steadyIntervalSeconds() * static_cast<double>(count);
}

GbdtEngine::Result
GbdtEngine::infer(const float *tuples, std::uint64_t count) const
{
    Result r;
    r.scores.resize(count);
    ensemble_.predictBatch(tuples, count, cfg_.features, r.scores.data());

    const double interval_s = steadyIntervalSeconds(&r.transferBound);
    const double total_s = cfg_.fill_latency_ns * 1e-9 +
                           interval_s * static_cast<double>(count);
    r.elapsed = units::sec(total_s);
    r.tuplesPerSecond = 1.0 / interval_s;
    return r;
}

void
GbdtEngine::serve(const float *tuples, std::uint64_t count,
                  std::vector<float> *scores_out, ServeDone done)
{
    if (scores_out) {
        scores_out->resize(count);
        ensemble_.predictBatch(tuples, count, cfg_.features,
                               scores_out->data());
    }

    const Tick submit = now();
    const Tick start = std::max(submit, freeAt_);
    Tick svc = units::sec(serviceSeconds(count));
    if (svc == 0)
        svc = 1;
    const Tick end = start + svc;
    freeAt_ = end;

    served_.inc();
    queueWaitNs_.sample(units::toNanos(start - submit));
    serviceNs_.sample(units::toNanos(svc));

    ENZIAN_SPAN(name(), "serve", start, end);
    ENZIAN_FLOW_STEP(name(), "serve", end, obs::currentFlowId());

    eventq().schedule(end,
                      [done = std::move(done), start, end] {
                          done(start, end);
                      },
                      "gbdt serve done");
}

} // namespace enzian::accel
