#include "src/store/bytes.h"

#include <cstring>
#include <fstream>
#include <sstream>

namespace ansor {

void ByteWriter::PutU32(uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, sizeof(v));
  buf_.append(bytes, sizeof(bytes));
}

void ByteWriter::PutU64(uint64_t v) {
  char bytes[8];
  std::memcpy(bytes, &v, sizeof(v));
  buf_.append(bytes, sizeof(bytes));
}

void ByteWriter::PutF32(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(bits);
}

void ByteWriter::PutF64(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void ByteWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buf_.push_back(static_cast<char>(v));
}

void ByteWriter::PutZigzag(int64_t v) {
  PutVarint((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
}

void ByteWriter::PutString(const std::string& s) {
  PutVarint(s.size());
  buf_.append(s);
}

void ByteWriter::PutRaw(const void* data, size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

void ByteWriter::PatchU32(size_t offset, uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, sizeof(v));
  buf_.replace(offset, sizeof(bytes), bytes, sizeof(bytes));
}

bool ByteReader::Need(size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t ByteReader::GetU8() {
  if (!Need(1)) {
    return 0;
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

uint32_t ByteReader::GetU32() {
  if (!Need(4)) {
    return 0;
  }
  uint32_t v = 0;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

uint64_t ByteReader::GetU64() {
  if (!Need(8)) {
    return 0;
  }
  uint64_t v = 0;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

float ByteReader::GetF32() {
  uint32_t bits = GetU32();
  float v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double ByteReader::GetF64() {
  uint64_t bits = GetU64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint64_t ByteReader::GetVarint() {
  uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (!Need(1)) {
      return 0;
    }
    uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return v;
    }
    shift += 7;
  }
  ok_ = false;  // more than 10 continuation bytes: malformed
  return 0;
}

int64_t ByteReader::GetZigzag() {
  uint64_t v = GetVarint();
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

std::string ByteReader::GetString() {
  uint64_t n = GetVarint();
  if (!Need(n)) {
    return std::string();
  }
  std::string s(data_ + pos_, n);
  pos_ += n;
  return s;
}

void ByteReader::GetRaw(void* out, size_t n) {
  if (!Need(n)) {
    std::memset(out, 0, n);
    return;
  }
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
}

void ByteReader::Skip(size_t n) {
  if (Need(n)) {
    pos_ += n;
  }
}

void ByteReader::Seek(size_t pos) {
  if (pos > size_) {
    ok_ = false;
    return;
  }
  pos_ = pos;
}

uint64_t Fnv1a64(const char* data, size_t n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return false;
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace ansor
