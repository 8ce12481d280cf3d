#include "wire.hpp"

#include <bit>
#include <cstring>

#include "common/errors.hpp"
#include "host/state.hpp"

namespace ps3::net {

namespace {

void
putU16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v & 0xFF));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

std::uint16_t
getU16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

/** Store a u64 little-endian (single mov on LE hosts). */
void
storeU64(std::uint8_t *p, std::uint64_t bits)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, &bits, 8);
    } else {
        for (int shift = 0; shift < 64; shift += 8)
            *p++ =
                static_cast<std::uint8_t>((bits >> shift) & 0xFF);
    }
}

void
putF64(std::vector<std::uint8_t> &out, double v)
{
    std::uint8_t raw[8];
    storeU64(raw, std::bit_cast<std::uint64_t>(v));
    out.insert(out.end(), raw, raw + 8);
}

double
getF64(const std::uint8_t *p)
{
    std::uint64_t bits;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&bits, p, 8);
    } else {
        bits = 0;
        for (int i = 7; i >= 0; --i)
            bits = (bits << 8) | p[i];
    }
    return std::bit_cast<double>(bits);
}

void
putF32(std::vector<std::uint8_t> &out, double v)
{
    const std::uint32_t bits =
        std::bit_cast<std::uint32_t>(static_cast<float>(v));
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(
            static_cast<std::uint8_t>((bits >> shift) & 0xFF));
}

double
getF32(const std::uint8_t *p)
{
    std::uint32_t bits = 0;
    for (int i = 3; i >= 0; --i)
        bits = (bits << 8) | p[i];
    return static_cast<double>(std::bit_cast<float>(bits));
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(
            static_cast<std::uint8_t>((v >> shift) & 0xFF));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

bool
magicMatches(const std::uint8_t *p)
{
    return std::memcmp(p, kMagic, sizeof(kMagic)) == 0;
}

} // namespace

std::string
describeStatus(HelloStatus status)
{
    switch (status) {
      case HelloStatus::Ok:
        return "ok";
      case HelloStatus::BadMagic:
        return "bad magic";
      case HelloStatus::VersionMismatch:
        return "protocol version mismatch";
      case HelloStatus::ServerFull:
        return "server full";
      case HelloStatus::BadHello:
        return "malformed hello";
    }
    return "unknown status";
}

// ----- ClientHello -------------------------------------------------------

std::vector<std::uint8_t>
ClientHello::encode() const
{
    std::vector<std::uint8_t> out;
    out.reserve(kClientHelloSize);
    for (const char c : kMagic)
        out.push_back(static_cast<std::uint8_t>(c));
    out.push_back(version);
    out.push_back(
        overflow == transport::RingOverflow::DropOldest ? 1 : 0);
    // Byte 6 was reserved (always 0) before v1.1; old servers never
    // look at it, so it now carries the client's minor version.
    out.push_back(minor);
    // Byte 7 was reserved before v1.2; it now carries the requested
    // tier (0 == raw, matching what older clients sent).
    out.push_back(static_cast<std::uint8_t>(tier));
    return out;
}

std::optional<ClientHello>
ClientHello::decode(const std::uint8_t *data, std::size_t size,
                    HelloStatus &reject_status)
{
    if (size < kClientHelloSize) {
        reject_status = HelloStatus::BadHello;
        return std::nullopt;
    }
    if (!magicMatches(data)) {
        reject_status = HelloStatus::BadMagic;
        return std::nullopt;
    }
    ClientHello hello;
    hello.version = data[4];
    if (hello.version != kProtocolVersion) {
        reject_status = HelloStatus::VersionMismatch;
        return std::nullopt;
    }
    if (data[5] > 1) {
        reject_status = HelloStatus::BadHello;
        return std::nullopt;
    }
    hello.overflow = data[5] == 1
                         ? transport::RingOverflow::DropOldest
                         : transport::RingOverflow::Block;
    // v1.0 clients sent 0 here, which is exactly "minor 0".
    hello.minor = data[6];
    if (data[7] > host::kMaxTierValue) {
        reject_status = HelloStatus::BadHello;
        return std::nullopt;
    }
    hello.tier = static_cast<host::Tier>(data[7]);
    return hello;
}

// ----- ServerHello -------------------------------------------------------

std::vector<std::uint8_t>
ServerHello::encode() const
{
    std::vector<std::uint8_t> payload;
    if (status == HelloStatus::Ok) {
        putF64(payload, sampleRateHz);
        std::string fw = firmwareVersion.substr(0, 255);
        payload.push_back(static_cast<std::uint8_t>(fw.size()));
        payload.insert(payload.end(), fw.begin(), fw.end());
        const auto blob = firmware::serializeConfig(config);
        payload.insert(payload.end(), blob.begin(), blob.end());
        // Trailing minor byte (v1.1) and granted tier (v1.2): older
        // clients only lower-bound the payload size, so they skip
        // both without noticing.
        payload.push_back(minor);
        payload.push_back(static_cast<std::uint8_t>(tier));
    }
    std::vector<std::uint8_t> out;
    out.reserve(kServerHelloPrefixSize + payload.size());
    for (const char c : kMagic)
        out.push_back(static_cast<std::uint8_t>(c));
    out.push_back(version);
    out.push_back(static_cast<std::uint8_t>(status));
    putU16(out, static_cast<std::uint16_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

std::size_t
ServerHello::decodePrefix(const std::uint8_t *data, std::size_t size,
                          ServerHello &out)
{
    if (size < kServerHelloPrefixSize)
        throw DeviceError("server hello truncated");
    if (!magicMatches(data))
        throw DeviceError(
            "server hello has bad magic (not a ps3d endpoint?)");
    out.version = data[4];
    out.status = static_cast<HelloStatus>(data[5]);
    if (out.version != kProtocolVersion)
        throw DeviceError(
            "server speaks protocol v"
            + std::to_string(out.version) + ", this client speaks v"
            + std::to_string(kProtocolVersion));
    return getU16(data + 6);
}

void
ServerHello::decodePayload(const std::uint8_t *data,
                           std::size_t size)
{
    if (size < 8 + 1)
        throw DeviceError("server hello payload truncated");
    sampleRateHz = getF64(data);
    const std::size_t fw_len = data[8];
    if (size < 9 + fw_len + firmware::kConfigBlobSize)
        throw DeviceError("server hello payload truncated");
    firmwareVersion.assign(
        reinterpret_cast<const char *>(data + 9), fw_len);
    config = firmware::deserializeConfig(
        data + 9 + fw_len, firmware::kConfigBlobSize);
    // Trailing bytes (absent from older servers): the server's minor
    // version, then (v1.2) the granted tier.
    const std::size_t fixed = 9 + fw_len + firmware::kConfigBlobSize;
    minor = size > fixed ? data[fixed] : 0;
    tier = host::Tier::Raw;
    if (size > fixed + 1) {
        if (data[fixed + 1] > host::kMaxTierValue)
            throw DeviceError("server hello grants unknown tier "
                              + std::to_string(data[fixed + 1]));
        tier = static_cast<host::Tier>(data[fixed + 1]);
    }
}

// ----- record batch codec ------------------------------------------------

void
encodeRecord(std::vector<std::uint8_t> &out,
             const host::DumpRecord &record)
{
    std::uint8_t raw[kMaxEncodedRecordBytes];
    const std::size_t n = encodeRecordTo(raw, record);
    out.insert(out.end(), raw, raw + n);
}

std::size_t
encodeRecordTo(std::uint8_t *out, const host::DumpRecord &record)
{
    std::uint8_t *p = out;
    if (record.marker) {
        *p++ = 'M';
        *p++ = static_cast<std::uint8_t>(record.markerChar);
        storeU64(p, std::bit_cast<std::uint64_t>(record.time));
        p += 8;
    }
    *p++ = 'S';
    *p++ = record.presentMask;
    storeU64(p, std::bit_cast<std::uint64_t>(record.time));
    p += 8;
    for (unsigned pair = 0; pair < host::kMaxPairs; ++pair) {
        if (!(record.presentMask & (1u << pair)))
            continue;
        storeU64(p, std::bit_cast<std::uint64_t>(
                        record.voltage[pair]));
        storeU64(p + 8, std::bit_cast<std::uint64_t>(
                            record.current[pair]));
        p += 16;
    }
    return static_cast<std::size_t>(p - out);
}

std::size_t
decodeRecordFrom(const std::uint8_t *data, std::size_t size,
                 host::DumpRecord &record)
{
    // Every field is assigned, none zeroed first: this runs once per
    // record on every reader, and a whole-struct clear costs more
    // than the parse.
    const bool marked = size >= kMarkerPrefixBytes && data[0] == 'M';
    const std::size_t start = marked ? kMarkerPrefixBytes : 0;
    if (size - start < kMinEncodedRecordBytes || data[start] != 'S')
        return 0;
    record.marker = marked;
    record.markerChar = marked ? static_cast<char>(data[1]) : '\0';
    record.gap = false;
    record.gapRecords = 0;
    record.gapSpanSeconds = 0.0;
    const std::uint8_t mask = data[start + 1];
    record.presentMask = mask;
    record.time = getF64(data + start + 2);
    std::size_t pos = start + kMinEncodedRecordBytes;
    for (unsigned pair = 0; pair < host::kMaxPairs; ++pair) {
        double volts = 0.0;
        double amps = 0.0;
        if (mask & (1u << pair)) {
            if (size - pos < 16)
                return 0;
            volts = getF64(data + pos);
            amps = getF64(data + pos + 8);
            pos += 16;
        }
        record.voltage[pair] = volts;
        record.current[pair] = amps;
    }
    return pos;
}

void
encodeBucket(std::vector<std::uint8_t> &out, host::Tier tier,
             const host::HistoryBucket &bucket)
{
    out.push_back('A');
    out.push_back(static_cast<std::uint8_t>(tier));
    out.push_back(bucket.presentMask);
    putF64(out, bucket.startTime);
    putF64(out, bucket.minPower);
    putF64(out, bucket.maxPower);
    putF64(out, bucket.sumPower);
    putU32(out, static_cast<std::uint32_t>(bucket.samples));
    for (unsigned pair = 0; pair < host::kMaxPairs; ++pair) {
        if (!(bucket.presentMask & (1u << pair)))
            continue;
        putF32(out, bucket.sumVoltage[pair]);
        putF32(out, bucket.sumCurrent[pair]);
    }
}

void
appendU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    std::uint8_t raw[8];
    storeU64(raw, v);
    out.insert(out.end(), raw, raw + 8);
}

std::uint64_t
readU64(const std::uint8_t *p)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::uint64_t v;
        std::memcpy(&v, p, 8);
        return v;
    } else {
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i)
            v = (v << 8) | p[i];
        return v;
    }
}

std::vector<std::uint8_t>
encodeHeartbeat(std::uint64_t next_seq)
{
    std::vector<std::uint8_t> out;
    out.reserve(4 + kHeartbeatPayloadSize);
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<std::uint8_t>(
            (kHeartbeatSentinel >> shift) & 0xFF));
    appendU64(out, next_seq);
    return out;
}

void
RecordDecoder::feed(const std::uint8_t *data, std::size_t size,
                    void *context, Callback cb,
                    BucketCallback bucket_cb)
{
    std::size_t pos = 0;
    host::DumpRecord record;
    while (pos < size) {
        const std::uint8_t kind = data[pos];
        if (kind == 'A') {
            if (bucket_cb == nullptr)
                throw DeviceError(
                    "record batch: unexpected aggregate record on "
                    "a raw stream");
            if (size - pos < kBucketRecordFixedSize)
                throw DeviceError(
                    "record batch: truncated aggregate record");
            const std::uint8_t tier_byte = data[pos + 1];
            if (tier_byte == 0
                || tier_byte > host::kMaxTierValue)
                throw DeviceError(
                    "record batch: aggregate record with invalid "
                    "tier "
                    + std::to_string(tier_byte));
            host::HistoryBucket bucket;
            bucket.presentMask = data[pos + 2];
            std::size_t offset = pos + 3;
            bucket.startTime = getF64(data + offset);
            bucket.minPower = getF64(data + offset + 8);
            bucket.maxPower = getF64(data + offset + 16);
            bucket.sumPower = getF64(data + offset + 24);
            bucket.samples = getU32(data + offset + 32);
            offset += 36;
            // Derivable fields stay off the wire: endTime is the
            // tier's window end; energyJoules needs the handshake
            // sample rate, so the caller reconstructs it.
            bucket.endTime =
                bucket.startTime
                + host::tierPeriodSeconds(
                    static_cast<host::Tier>(tier_byte));
            bucket.energyJoules = 0.0;
            for (unsigned pair = 0; pair < host::kMaxPairs;
                 ++pair) {
                if (!(bucket.presentMask & (1u << pair)))
                    continue;
                if (size - offset < 8)
                    throw DeviceError(
                        "record batch: truncated aggregate record");
                bucket.sumVoltage[pair] = getF32(data + offset);
                bucket.sumCurrent[pair] =
                    getF32(data + offset + 4);
                offset += 8;
            }
            ++bucketCount_;
            bucket_cb(context,
                      static_cast<host::Tier>(tier_byte), bucket);
            pos = offset;
            continue;
        }
        if (kind != 'M' && kind != 'S')
            throw DeviceError("record batch: unknown record kind "
                              + std::to_string(kind));
        if (kind == 'M' && size - pos == kMarkerPrefixBytes) {
            // A bare marker prefix ending the batch flags the first
            // record of the next one.
            pendingMarker_ = true;
            pendingMarkerChar_ = static_cast<char>(data[pos + 1]);
            return;
        }
        const std::size_t used =
            decodeRecordFrom(data + pos, size - pos, record);
        if (used == 0)
            throw DeviceError(
                "record batch: truncated or malformed sample record");
        if (pendingMarker_ && !record.marker) {
            record.marker = true;
            record.markerChar = pendingMarkerChar_;
        }
        pendingMarker_ = false;
        ++recordCount_;
        cb(context, record);
        pos += used;
    }
}

} // namespace ps3::net
